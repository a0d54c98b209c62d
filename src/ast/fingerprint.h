// Content-addressed fingerprints for verification units.
//
// A *verification unit* is one generator plus everything its verdict depends
// on: the transitive closure of DSL helpers it calls, the compiler and
// interpreter op callbacks for every op it (or anything in the closure)
// emits, the signatures of those ops, the extern functions it calls together
// with their contracts (and the externs/enums *those* contracts mention), and
// the enum declarations its expressions reference. The fingerprint is a
// 128-bit hash over a canonical serialization of exactly that closure —
// nothing more — so:
//
//   - editing one interpreter op's semantics changes the fingerprint of
//     precisely the generators whose emitted-op closure reaches that op;
//   - editing generator A never invalidates generator B;
//   - two processes that load the same platform sources compute identical
//     fingerprints (the hash covers resolved AST content, not pointers,
//     parse order, or load paths).
//
// This is the invalidation key of the incremental verification pipeline: the
// persistent verdict store (src/verifier/verdict_store.h) maps
// (generator, unit fingerprint, solver budget) to a previously earned PASS,
// and a matching fingerprint means the stored verdict is still about the
// same semantics. See docs/ARCHITECTURE.md §"Incremental verification".
//
// Each declaration is hashed once per loaded module, not once per unit: the
// first UnitFingerprint call on a module (from any thread; the others wait)
// builds a memo holding every declaration's item hash and the declarations
// it pulls in (its ast.h References; an op, its callbacks). A unit's
// fingerprint is then a walk over that graph from the generator and a fold
// of the item hashes it reaches. The first call thus pays for the whole
// module (the `frontend.fingerprint` trace span) and every later one only
// for its walk. The memo freezes the module: parsing into it or resolving
// it again fails an ICARUS_CHECK.
#ifndef ICARUS_AST_FINGERPRINT_H_
#define ICARUS_AST_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/ast/ast.h"
#include "src/support/status.h"

namespace icarus::ast {

// 128-bit content hash; two lanes seeded independently over one item stream.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Fingerprint& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }

  // 32 lowercase hex characters (lo then hi), the wire form journals store.
  std::string ToHex() const;
};

// Computes the fingerprint of `generator_name`'s verification unit over the
// resolved `module`, building the module's memo on first use. Thread-safe.
// Errors only when the name does not resolve to a generator; a resolvable
// generator always fingerprints (missing op callbacks simply contribute
// nothing, matching how verification treats them). The combination over
// closure items is order-insensitive, so the result is independent of
// declaration and traversal order.
StatusOr<Fingerprint> UnitFingerprint(const Module& module, std::string_view generator_name);

// The platform fingerprint (Platform::Fingerprint): every declaration's item
// hash, in declaration order, plus the language, compiler and interpreter
// headers, so any edit that can move a unit fingerprint moves it. It builds
// no memo.
uint64_t ModuleHash(const Module& module);

}  // namespace icarus::ast

#endif  // ICARUS_AST_FINGERPRINT_H_
