#include "src/verifier/journal.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/support/flat_json.h"
#include "src/support/str_util.h"

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace icarus::verifier {

namespace {

using icarus::AppendJsonString;

// Minimal parser for the flat JSON objects this journal writes: string and
// number values only, no nesting. Unknown keys are skipped so a newer writer
// that adds fields stays readable (the schema version gates real breaks).
class LineParser {
 public:
  explicit LineParser(std::string_view line) : p_(line.data()), end_(line.data() + line.size()) {}

  bool Parse(JournalRecord* rec) {
    SkipWs();
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return AtEnd();
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      SkipWs();
      if (!ParseValue(key, rec)) {
        return false;
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      break;
    }
    if (!Consume('}')) {
      return false;
    }
    return AtEnd();
  }

 private:
  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }
  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ >= end_) {
          return false;
        }
        char e = *p_++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (end_ - p_ < 4) {
              return false;
            }
            char hex[5] = {p_[0], p_[1], p_[2], p_[3], '\0'};
            char* hex_end = nullptr;
            long cp = std::strtol(hex, &hex_end, 16);
            if (hex_end != hex + 4) {
              return false;
            }
            p_ += 4;
            // The writer only emits \u00XX for control bytes; decode the
            // low byte and ignore the (unused) wider range.
            out->push_back(static_cast<char>(cp & 0xff));
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return Consume('"');
  }

  bool ParseNumber(double* out) {
    const char* start = p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 || *p_ == '-' ||
                         *p_ == '+' || *p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      ++p_;
    }
    if (p_ == start) {
      return false;
    }
    std::string text(start, p_);
    char* num_end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &num_end);
    if (errno != 0 || num_end != text.c_str() + text.size()) {
      return false;
    }
    *out = v;
    return true;
  }

  bool ParseValue(const std::string& key, JournalRecord* rec) {
    if (p_ < end_ && *p_ == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      if (key == "platform") {
        rec->platform = std::move(s);
      } else if (key == "generator") {
        rec->generator = std::move(s);
      } else if (key == "outcome") {
        rec->outcome = std::move(s);
      } else if (key == "error") {
        rec->error = std::move(s);
      } else if (key == "cx_contract") {
        rec->cx_contract = std::move(s);
      } else if (key == "cx_function") {
        rec->cx_function = std::move(s);
      } else if (key == "cx_witnesses") {
        rec->cx_witnesses = std::move(s);
      } else if (key == "cx_source_ops") {
        rec->cx_source_ops = std::move(s);
      } else if (key == "cx_target_ops") {
        rec->cx_target_ops = std::move(s);
      } else if (key == "cx_decisions") {
        rec->cx_decisions = std::move(s);
      } else if (key == "unit_fp") {
        rec->unit_fp = std::move(s);
      }
      return true;
    }
    double v = 0.0;
    if (!ParseNumber(&v)) {
      return false;
    }
    if (key == "schema") {
      rec->schema = static_cast<int>(v);
    } else if (key == "paths") {
      rec->paths = static_cast<int64_t>(v);
    } else if (key == "queries") {
      rec->queries = static_cast<int64_t>(v);
    } else if (key == "seconds") {
      rec->seconds = v;
    } else if (key == "attempts") {
      rec->attempts = static_cast<int>(v);
    } else if (key == "cfa_s") {
      rec->cfa_s = v;
    } else if (key == "gen_s") {
      rec->gen_s = v;
    } else if (key == "interp_s") {
      rec->interp_s = v;
    } else if (key == "solve_s") {
      rec->solve_s = v;
    } else if (key == "decisions") {
      rec->decisions = static_cast<int64_t>(v);
    } else if (key == "propagations") {
      rec->propagations = static_cast<int64_t>(v);
    } else if (key == "learned_clauses") {
      rec->learned_clauses = static_cast<int64_t>(v);
    } else if (key == "restarts") {
      rec->restarts = static_cast<int64_t>(v);
    } else if (key == "paths_attached") {
      rec->paths_attached = static_cast<int64_t>(v);
    } else if (key == "paths_infeasible") {
      rec->paths_infeasible = static_cast<int64_t>(v);
    } else if (key == "cx_line") {
      rec->cx_line = static_cast<int>(v);
    } else if (key == "budget_decisions") {
      rec->budget_decisions = static_cast<int64_t>(v);
    } else if (key == "budget_seconds") {
      rec->budget_seconds = v;
    }
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

bool ParseJournalLine(std::string_view line, JournalRecord* rec) {
  return LineParser(line).Parse(rec);
}

std::string JournalRecord::ToJsonLine() const {
  std::string out = StrFormat("{\"schema\":%d,\"platform\":", schema);
  AppendJsonString(platform, &out);
  out += ",\"generator\":";
  AppendJsonString(generator, &out);
  out += ",\"outcome\":";
  AppendJsonString(outcome, &out);
  out += ",\"error\":";
  AppendJsonString(error, &out);
  // %.17g round-trips a double exactly through strtod, so a resumed run
  // re-renders the same "%.4f" table cell the interrupted run printed.
  out += StrFormat(",\"paths\":%lld,\"queries\":%lld,\"seconds\":%.17g,\"attempts\":%d",
                   static_cast<long long>(paths), static_cast<long long>(queries), seconds,
                   attempts);
  out += StrFormat(
      ",\"cfa_s\":%.17g,\"gen_s\":%.17g,\"interp_s\":%.17g,\"solve_s\":%.17g,\"decisions\":%lld",
      cfa_s, gen_s, interp_s, solve_s, static_cast<long long>(decisions));
  out += StrFormat(",\"propagations\":%lld,\"learned_clauses\":%lld,\"restarts\":%lld",
                   static_cast<long long>(propagations),
                   static_cast<long long>(learned_clauses),
                   static_cast<long long>(restarts));
  out += StrFormat(",\"paths_attached\":%lld,\"paths_infeasible\":%lld",
                   static_cast<long long>(paths_attached),
                   static_cast<long long>(paths_infeasible));
  // Incremental-verification block (schema >= 4): only on rows that carry a
  // unit fingerprint, so journals from non-incremental runs stay compact.
  if (!unit_fp.empty()) {
    out += ",\"unit_fp\":";
    AppendJsonString(unit_fp, &out);
    out += StrFormat(",\"budget_decisions\":%lld,\"budget_seconds\":%.17g",
                     static_cast<long long>(budget_decisions), budget_seconds);
  }
  // Counterexample block: only on rows that carry one, so VERIFIED rows stay
  // as compact as before.
  if (!cx_contract.empty()) {
    out += ",\"cx_contract\":";
    AppendJsonString(cx_contract, &out);
    out += ",\"cx_function\":";
    AppendJsonString(cx_function, &out);
    out += StrFormat(",\"cx_line\":%d", cx_line);
    out += ",\"cx_witnesses\":";
    AppendJsonString(cx_witnesses, &out);
    out += ",\"cx_source_ops\":";
    AppendJsonString(cx_source_ops, &out);
    out += ",\"cx_target_ops\":";
    AppendJsonString(cx_target_ops, &out);
    out += ",\"cx_decisions\":";
    AppendJsonString(cx_decisions, &out);
  }
  out.push_back('}');
  return out;
}

StatusOr<std::unique_ptr<JournalWriter>> JournalWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Error(
        StrCat("cannot open journal '", path, "' for append: ", std::strerror(errno)));
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(file));
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status JournalWriter::Append(const JournalRecord& record) {
  std::string line = record.ToJsonLine();
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::Error(StrCat("journal write failed: ", std::strerror(errno)));
  }
  if (std::fflush(file_) != 0) {
    return Status::Error(StrCat("journal flush failed: ", std::strerror(errno)));
  }
#ifndef _WIN32
  // The fsync is what makes "journaled" mean "survives a crash": without it
  // the verdict can sit in the page cache when the process is killed.
  if (fsync(fileno(file_)) != 0) {
    return Status::Error(StrCat("journal fsync failed: ", std::strerror(errno)));
  }
#endif
  return Status::Ok();
}

StatusOr<std::vector<JournalRecord>> ReadJournal(const std::string& path,
                                                 const std::string& expect_platform) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(StrCat("cannot read journal '", path, "'"));
  }
  std::vector<JournalRecord> records;
  std::string line;
  std::string pending_error;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!pending_error.empty()) {
      // A malformed line followed by anything else is corruption; only a
      // malformed *final* line (a torn append from a crash) is tolerated.
      return Status::Error(pending_error);
    }
    if (line.empty()) {
      continue;
    }
    JournalRecord rec;
    if (!ParseJournalLine(line, &rec)) {
      pending_error = StrCat("journal '", path, "' line ", line_no, " is malformed");
      continue;
    }
    if (rec.schema < kJournalMinReadSchemaVersion || rec.schema > kJournalSchemaVersion) {
      return Status::Error(StrFormat("journal '%s' line %d has schema version %d; this build "
                                     "reads versions %d through %d",
                                     path.c_str(), line_no, rec.schema,
                                     kJournalMinReadSchemaVersion, kJournalSchemaVersion));
    }
    if (!expect_platform.empty() && rec.platform != expect_platform) {
      return Status::Error(StrFormat(
          "journal '%s' line %d was written by platform %s but this process loaded %s; "
          "refusing to mix verdicts across platforms",
          path.c_str(), line_no, rec.platform.c_str(), expect_platform.c_str()));
    }
    records.push_back(std::move(rec));
  }
  return records;
}

obs::ReportRow ReportRowFromRecord(const JournalRecord& rec) {
  obs::ReportRow row;
  row.generator = rec.generator;
  row.outcome = rec.outcome;
  row.error = rec.error;
  row.paths = rec.paths;
  row.paths_attached = rec.paths_attached;
  row.paths_infeasible = rec.paths_infeasible;
  row.queries = rec.queries;
  row.decisions = rec.decisions;
  row.attempts = rec.attempts;
  row.seconds = rec.seconds;
  row.cfa_s = rec.cfa_s;
  row.gen_s = rec.gen_s;
  row.interp_s = rec.interp_s;
  row.solve_s = rec.solve_s;
  row.cx_contract = rec.cx_contract;
  row.cx_function = rec.cx_function;
  row.cx_line = rec.cx_line;
  row.cx_witnesses = rec.cx_witnesses;
  row.cx_source_ops = rec.cx_source_ops;
  row.cx_target_ops = rec.cx_target_ops;
  row.cx_decisions = rec.cx_decisions;
  return row;
}

}  // namespace icarus::verifier
