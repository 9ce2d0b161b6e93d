// The query plan layer (ROADMAP item 4): predicates, projections and simple
// aggregations that the client pushes down into tablet servers instead of
// shipping whole rows. A plan describes WHAT to evaluate; the executor
// (src/query/executor.h) describes HOW, over column-group-aligned batches.
//
// Plans travel through the simulated RPC layer as values, like every other
// request: the client hands the server the QueryPlan itself and charges the
// network model `EncodedSize()` bytes for it, the size of a fixed
// deterministic layout. Same plan -> same size, always, so request charges
// (and therefore virtual-time costs) are reproducible.

#ifndef LOGBASE_QUERY_PLAN_H_
#define LOGBASE_QUERY_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace logbase::query {

/// A typed constant a predicate compares a column cell against. Cells are
/// stored as strings (the column-group encoding is untyped); kInt64 operands
/// parse the cell as a base-10 integer at evaluation time.
struct Value {
  enum class Kind : uint8_t { kBytes = 0, kInt64 = 1 };

  Kind kind = Kind::kBytes;
  std::string bytes;  // kBytes payload
  int64_t i64 = 0;    // kInt64 payload

  static Value Bytes(std::string b) {
    Value v;
    v.kind = Kind::kBytes;
    v.bytes = std::move(b);
    return v;
  }
  static Value Int64(int64_t n) {
    Value v;
    v.kind = Kind::kInt64;
    v.i64 = n;
    return v;
  }

  /// <0 / 0 / >0; both sides must be the same kind (the planner guarantees
  /// it: operands type the comparison).
  int Compare(const Value& other) const;

  /// Bytes on the wire: a kind byte, then a fixed64 or a length-prefixed
  /// string.
  uint64_t EncodedSize() const;
};

/// Parses a full-string base-10 int64 ("42", "-7"); false on any trailing
/// garbage, overflow or empty cell, so unparsable cells fail comparisons
/// instead of comparing garbage (SQL NULL semantics).
bool ParseInt64(const Slice& cell, int64_t* out);

/// A boolean expression tree over column cells: comparison leaves combined
/// with AND/OR. A missing or (for kInt64 operands) unparsable cell fails its
/// comparison — never matches, under any operator — which keeps all three
/// execution paths (client-side, primary pushdown, replica pushdown)
/// bit-identical on messy data.
struct Predicate {
  enum class Op : uint8_t {
    kTrue = 0,  // matches every row (the default: a plain scan)
    kEq = 1,
    kNe = 2,
    kLt = 3,
    kLe = 4,
    kGt = 5,
    kGe = 6,
    kAnd = 7,
    kOr = 8,
  };

  Op op = Op::kTrue;
  std::string column;               // comparison leaves only
  Value operand;                    // comparison leaves only
  std::vector<Predicate> children;  // kAnd/kOr only

  static Predicate True() { return Predicate{}; }
  static Predicate Cmp(Op op, std::string column, Value operand);
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);

  bool IsTrue() const { return op == Op::kTrue; }

  /// Every column the tree references (sorted, deduped) — the executor
  /// gathers exactly these into its evaluation batch.
  void CollectColumns(std::vector<std::string>* out) const;

  /// Row-at-a-time evaluation over a decoded column map. The executor's
  /// columnar path and the client-side reference both reduce to this
  /// semantics; tests compare the two.
  bool Matches(const std::map<std::string, std::string>& columns) const;
};

/// The one place a cell meets a comparison operand — shared by
/// Predicate::Matches and the executor's columnar evaluation so the two
/// paths cannot drift. `op` must be a comparison operator.
bool CellMatches(Predicate::Op op, const Slice& cell, const Value& operand);

/// The columns a query ships back. Empty = ship whole rows (the stored
/// column-group value travels verbatim under kRawValueColumn, so a plain
/// `Scan` routed through the query path is byte-exact).
struct Projection {
  std::vector<std::string> columns;

  bool empty() const { return columns.empty(); }
};

/// A pre-aggregation the server folds rows into, shipping partials instead
/// of rows: count/sum/min/max over one column, optionally grouped by a
/// primary-key prefix. Partials merge associatively client-side
/// (sum-of-sums, min-of-mins, group-by map merge), so the split across
/// tablets never changes the answer.
struct Aggregation {
  enum class Kind : uint8_t {
    kNone = 0,  // no aggregation: the query returns row batches
    kCount = 1,
    kSum = 2,
    kMin = 3,
    kMax = 4,
  };

  Kind kind = Kind::kNone;
  /// Aggregated column (ignored by kCount, which counts matching rows).
  std::string column;
  /// How kMin/kMax order cells (kSum always parses int64). A cell that
  /// fails to parse is skipped, identically on every path.
  Value::Kind value_kind = Value::Kind::kInt64;
  /// Group rows by the first N bytes of the primary key (0 = one group).
  uint32_t group_by_prefix_len = 0;

  bool enabled() const { return kind != Kind::kNone; }
};

/// A full pushed-down scan: key range + predicate + projection +
/// aggregation. `end_key` is exclusive; empty = unbounded.
struct QueryPlan {
  std::string start_key;
  std::string end_key;
  Predicate predicate;
  Projection projection;
  Aggregation aggregation;

  /// The request bytes the RPC sim charges for the plan: the size of its
  /// deterministic layout (tag-free, field order fixed, varint sizes)
  ///   version byte | start_key | end_key | predicate | projection |
  ///   aggregation
  /// where a predicate is an op byte, then a leaf's column + operand or a
  /// combinator's child count + children.
  uint64_t EncodedSize() const;
};

/// The exclusive upper bound of the smallest key range covering every key
/// starting with `prefix` ("ab" -> "ac"); empty (unbounded) when the prefix
/// is empty or all-0xff. With `prefix` as start_key this turns a key prefix
/// into a plan range.
std::string PrefixSuccessor(const std::string& prefix);

}  // namespace logbase::query

#endif  // LOGBASE_QUERY_PLAN_H_
