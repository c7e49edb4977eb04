// Architectural constraints and their checker. The task layer supplies
// threshold properties ("average latency < maxLatency"); the checker
// evaluates each constraint against the live model and emits violations
// that trigger repair strategies (Section 3.2).
//
// Evaluation is incremental: the checker caches each constraint's last
// verdict and re-evaluates only when something it could have read changed,
// using the model's revision clocks (model/revision.hpp):
//   - "local" constraints (conditions built purely from literals, globals,
//     and the attached element's own properties — the paper's threshold
//     form) re-evaluate when that element's property stamp moves;
//   - "non-local" constraints (calls, member chains, quantifiers — anything
//     that can reach other elements) re-evaluate when any property in the
//     process changed;
//   - any structural edit or global rebinding falls back to a full sweep.
// A cached verdict is returned verbatim, so check() output is bit-for-bit
// what a full sweep would produce, in the same deterministic order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acme/ast.hpp"
#include "acme/evaluator.hpp"
#include "model/system.hpp"
#include "util/symbol.hpp"

namespace arcadia::repair {

struct Constraint {
  std::string id;       ///< unique ("latency:User3")
  std::string element;  ///< component the constraint is attached to
  std::shared_ptr<acme::Expr> condition;  ///< must evaluate to true
  std::string handler;  ///< strategy invoked on violation (may be empty)
  std::string source;   ///< original Armani text (for reports)
  util::Symbol id_sym;       ///< interned `id` (set by the checker)
  util::Symbol element_sym;  ///< interned `element` (set by the checker)
};

struct Violation {
  const Constraint* constraint = nullptr;
  std::string element;
  /// Value of the left-hand property when the constraint is a simple
  /// threshold comparison; 0 otherwise. Used by the worst-first policy.
  double observed = 0.0;
};

class ConstraintChecker {
 public:
  explicit ConstraintChecker(const model::System& system);

  /// Global bindings visible in constraint expressions (task-layer
  /// thresholds such as maxServerLoad / minBandwidth / minUtilization).
  /// Invalidates every cached verdict.
  void bind_global(const std::string& name, acme::EvalValue value);

  /// Attach a parsed constraint to a specific element.
  void add_constraint(const std::string& id, const std::string& element,
                      const std::string& armani_source,
                      const std::string& handler);

  /// Instantiate a script's invariants over every component that carries
  /// all the properties the invariant mentions (unqualified names that are
  /// not global bindings). Returns the number of constraints created.
  std::size_t instantiate(const acme::Script& script);

  /// Evaluate everything that may have changed; returns current violations
  /// in a deterministic order (constraint insertion order, as always).
  std::vector<Violation> check() const;

  /// Evaluate one constraint (by id), bypassing the cache; true = satisfied.
  bool satisfied(const std::string& id) const;

  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Mark (or clear) an element whose monitoring evidence is suspect — its
  /// gauge channels went stale per the watchdog. While suspect, check()
  /// *holds* the element's verdicts: no violation is asserted for it and
  /// its memo is left untouched, so repairs neither trigger nor flap on
  /// data that may simply be missing. Clearing resumes normal evaluation.
  void set_element_suspect(util::Symbol element, bool suspect);
  bool element_suspect(util::Symbol element) const;

  /// Incremental-evaluation accounting (benches / tests).
  struct CheckStats {
    std::uint64_t evaluations = 0;  ///< constraints actually re-evaluated
    std::uint64_t cache_hits = 0;   ///< constraints answered from cache
    std::uint64_t full_sweeps = 0;  ///< sweeps forced by structure/globals
    std::uint64_t holds = 0;        ///< verdicts held on suspect evidence
  };
  const CheckStats& check_stats() const { return check_stats_; }

 private:
  /// Per-constraint memo of the last evaluation.
  struct Memo {
    bool valid = false;
    bool satisfied = false;
    double observed = 0.0;
    /// Condition reads only literals, globals, and context-element
    /// properties (computed once per constraint).
    bool local = false;
    /// Property clock of the attached element when last evaluated.
    std::uint64_t element_stamp = 0;
  };

  bool eval_constraint(const Constraint& c, double* observed) const;
  void ensure_memos() const;

  const model::System& system_;
  acme::Evaluator evaluator_;
  /// The global bindings; every evaluation runs in a child of this scope.
  acme::EvalContext globals_;
  std::vector<Constraint> constraints_;
  /// Elements under a verdict hold (set from the sim thread between
  /// sweeps; check() only reads it).
  util::SymbolMap<char> suspect_;

  mutable std::vector<Memo> memos_;
  /// Structure clock at the end of the previous sweep.
  mutable std::uint64_t structure_seen_ = 0;
  /// Property clock at the end of the previous sweep (non-local reuse).
  mutable std::uint64_t property_seen_ = 0;
  /// Bumped by bind_global; forces the next sweep to re-evaluate all.
  std::uint64_t globals_stamp_ = 1;
  mutable std::uint64_t globals_seen_ = 0;
  mutable CheckStats check_stats_;
};

/// Free unqualified names mentioned in an expression (helper exposed for
/// tests; used to decide which elements an invariant applies to).
std::vector<std::string> free_names(const acme::Expr& expr);

/// True when `expr` can only read literals, bound names, and unqualified
/// context-element properties — no calls, member chains, or comprehensions
/// that could reach other elements (exposed for tests).
bool expression_is_local(const acme::Expr& expr);

}  // namespace arcadia::repair
