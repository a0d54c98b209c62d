#include "src/verifier/journal.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/support/flat_json.h"
#include "src/support/str_util.h"

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace icarus::verifier {

bool ParseJournalLine(std::string_view line, JournalRecord* rec) {
  // Unknown keys are skipped so a newer writer that adds fields stays
  // readable (the schema version gates real breaks). An integer field whose
  // value does not fit its type makes the line malformed.
  bool in_range = true;
  auto narrow = [&in_range](double v, auto* field) {
    in_range = NarrowJsonNumber(v, field) && in_range;
  };
  bool ok = FlatLineParser(line).Parse(
      [rec](const std::string& key, std::string s) {
        if (key == "epoch") {
          rec->epoch = std::move(s);
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
      },
      [rec, &narrow](const std::string& key, double v) {
        if (key == "schema") {
          narrow(v, &rec->schema);
        } else if (key == "paths") {
          narrow(v, &rec->paths);
        } else if (key == "queries") {
          narrow(v, &rec->queries);
        } else if (key == "seconds") {
          rec->seconds = v;
        } else if (key == "gen_s") {
          rec->gen_s = v;
        } else if (key == "interp_s") {
          rec->interp_s = v;
        } else if (key == "solve_s") {
          rec->solve_s = v;
        } else if (key == "decisions") {
          narrow(v, &rec->decisions);
        } else if (key == "propagations") {
          narrow(v, &rec->propagations);
        } else if (key == "learned_clauses") {
          narrow(v, &rec->learned_clauses);
        } else if (key == "restarts") {
          narrow(v, &rec->restarts);
        } else if (key == "paths_attached") {
          narrow(v, &rec->paths_attached);
        } else if (key == "paths_infeasible") {
          narrow(v, &rec->paths_infeasible);
        } else if (key == "cx_line") {
          narrow(v, &rec->cx_line);
        } else if (key == "budget_decisions") {
          narrow(v, &rec->budget_decisions);
        }
      });
  return ok && in_range;
}

std::string JournalRecord::ToJsonLine() const {
  std::string out = StrFormat("{\"schema\":%d,\"epoch\":", schema);
  AppendJsonString(epoch, &out);
  out += ",\"generator\":";
  AppendJsonString(generator, &out);
  out += ",\"outcome\":";
  AppendJsonString(outcome, &out);
  out += ",\"error\":";
  AppendJsonString(error, &out);
  // %.17g round-trips a double exactly through strtod.
  out += StrFormat(",\"paths\":%lld,\"queries\":%lld,\"seconds\":%.17g",
                   static_cast<long long>(paths), static_cast<long long>(queries), seconds);
  out += StrFormat(
      ",\"gen_s\":%.17g,\"interp_s\":%.17g,\"solve_s\":%.17g,\"decisions\":%lld", gen_s,
      interp_s, solve_s, static_cast<long long>(decisions));
  out += StrFormat(",\"propagations\":%lld,\"learned_clauses\":%lld,\"restarts\":%lld",
                   static_cast<long long>(propagations),
                   static_cast<long long>(learned_clauses),
                   static_cast<long long>(restarts));
  out += StrFormat(",\"paths_attached\":%lld,\"paths_infeasible\":%lld",
                   static_cast<long long>(paths_attached),
                   static_cast<long long>(paths_infeasible));
  // Restore key (schema >= 4): only on rows that carry a unit fingerprint,
  // which a row of an undeclared generator does not.
  if (!unit_fp.empty()) {
    out += ",\"unit_fp\":";
    AppendJsonString(unit_fp, &out);
    out += StrFormat(",\"budget_decisions\":%lld", static_cast<long long>(budget_decisions));
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

namespace {

// Cuts a final line that has no newline: a crash tore that append, and the
// next record would otherwise merge into it.
Status CutTornTail(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::Ok();  // Absent: Open creates it.
  }
  const std::streamoff size = in.tellg();
  std::streamoff keep = size;
  char c = '\0';
  while (keep > 0 && in.seekg(keep - 1) && in.get(c) && c != '\n') {
    --keep;
  }
  std::error_code ec;
  if (in && keep < size) {
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(keep), ec);
  }
  if (!in || ec) {
    return Status::Error(StrCat("cannot cut the torn final line of journal '", path, "'"));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<JournalWriter>> JournalWriter::Open(const std::string& path) {
  ICARUS_RETURN_IF_ERROR(CutTornTail(path));
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

StatusOr<std::vector<JournalRecord>> ReadRecords(std::istream& in, bool drop_torn_tail) {
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
      pending_error = StrCat("line ", line_no, " is malformed");
      if (!drop_torn_tail) {
        return Status::Error(pending_error);
      }
      continue;
    }
    if (rec.schema < kJournalMinReadSchemaVersion || rec.schema > kJournalSchemaVersion) {
      return Status::Error(StrFormat("line %d has schema version %d; this build reads versions "
                                     "%d through %d",
                                     line_no, rec.schema, kJournalMinReadSchemaVersion,
                                     kJournalSchemaVersion));
    }
    records.push_back(std::move(rec));
  }
  return records;
}

StatusOr<std::vector<JournalRecord>> ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(StrCat("cannot read journal '", path, "'"));
  }
  StatusOr<std::vector<JournalRecord>> records = ReadRecords(in, /*drop_torn_tail=*/true);
  if (!records.ok()) {
    return Status::Error(StrCat("journal '", path, "' ", records.status().message()));
  }
  return records;
}

}  // namespace icarus::verifier
