#include "src/query/plan.h"

#include <cerrno>
#include <cstdlib>

#include "src/util/coding.h"

namespace logbase::query {

// ---------------------------------------------------------------------------
// Value.
// ---------------------------------------------------------------------------

int Value::Compare(const Value& other) const {
  if (kind == Kind::kInt64) {
    if (i64 < other.i64) return -1;
    if (i64 > other.i64) return 1;
    return 0;
  }
  return Slice(bytes).compare(Slice(other.bytes));
}

uint64_t Value::EncodedSize() const {
  if (kind == Kind::kInt64) return 1 + 8;
  return 1 + static_cast<uint64_t>(VarintLength(bytes.size())) + bytes.size();
}

bool ParseInt64(const Slice& cell, int64_t* out) {
  if (cell.empty() || cell.size() > 20) return false;
  // strtoll skips leading whitespace ("  12" parses); a cell is only a
  // number when its first byte already is one, so reject that up front.
  const char first = cell[0];
  if (first != '-' && (first < '0' || first > '9')) return false;
  char buf[24];
  memcpy(buf, cell.data(), cell.size());
  buf[cell.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno == ERANGE || end != buf + cell.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

// ---------------------------------------------------------------------------
// Predicate.
// ---------------------------------------------------------------------------

Predicate Predicate::Cmp(Op op, std::string column, Value operand) {
  Predicate p;
  p.op = op;
  p.column = std::move(column);
  p.operand = std::move(operand);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  Predicate p;
  p.op = Op::kAnd;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  Predicate p;
  p.op = Op::kOr;
  p.children = std::move(children);
  return p;
}

void Predicate::CollectColumns(std::vector<std::string>* out) const {
  switch (op) {
    case Op::kTrue:
      return;
    case Op::kAnd:
    case Op::kOr:
      for (const Predicate& child : children) child.CollectColumns(out);
      return;
    default:
      out->push_back(column);
      for (size_t i = out->size(); i > 1; i--) {
        // Insertion keeps the list sorted + deduped without a second pass.
        if ((*out)[i - 1] > (*out)[i - 2]) break;
        if ((*out)[i - 1] == (*out)[i - 2]) {
          out->erase(out->begin() + static_cast<long>(i) - 1);
          break;
        }
        std::swap((*out)[i - 1], (*out)[i - 2]);
      }
      return;
  }
}

namespace {

bool CompareMatches(Predicate::Op op, int cmp) {
  switch (op) {
    case Predicate::Op::kEq:
      return cmp == 0;
    case Predicate::Op::kNe:
      return cmp != 0;
    case Predicate::Op::kLt:
      return cmp < 0;
    case Predicate::Op::kLe:
      return cmp <= 0;
    case Predicate::Op::kGt:
      return cmp > 0;
    case Predicate::Op::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

}  // namespace

/// Shared leaf semantics: the one place a cell meets an operand, used by
/// both the row path here and the columnar path in the executor.
bool CellMatches(Predicate::Op op, const Slice& cell, const Value& operand) {
  if (operand.kind == Value::Kind::kInt64) {
    int64_t v;
    if (!ParseInt64(cell, &v)) return false;
    Value parsed = Value::Int64(v);
    return CompareMatches(op, parsed.Compare(operand));
  }
  return CompareMatches(op, Slice(cell).compare(Slice(operand.bytes)));
}

bool Predicate::Matches(
    const std::map<std::string, std::string>& columns) const {
  switch (op) {
    case Op::kTrue:
      return true;
    case Op::kAnd:
      for (const Predicate& child : children) {
        if (!child.Matches(columns)) return false;
      }
      return true;
    case Op::kOr:
      for (const Predicate& child : children) {
        if (child.Matches(columns)) return true;
      }
      return false;
    default: {
      auto it = columns.find(column);
      if (it == columns.end()) return false;  // NULL never matches
      return CellMatches(op, Slice(it->second), operand);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan size: the layout QueryPlan::EncodedSize documents, all sizes varint.
// ---------------------------------------------------------------------------

namespace {

uint64_t StringSize(const std::string& s) {
  return static_cast<uint64_t>(VarintLength(s.size())) + s.size();
}

uint64_t PredicateSize(const Predicate& p) {
  switch (p.op) {
    case Predicate::Op::kTrue:
      return 1;
    case Predicate::Op::kAnd:
    case Predicate::Op::kOr: {
      uint64_t size = 1 + VarintLength(p.children.size());
      for (const Predicate& child : p.children) size += PredicateSize(child);
      return size;
    }
    default:
      return 1 + StringSize(p.column) + p.operand.EncodedSize();
  }
}

}  // namespace

uint64_t QueryPlan::EncodedSize() const {
  uint64_t size = 1;  // version byte
  size += StringSize(start_key) + StringSize(end_key);
  size += PredicateSize(predicate);
  size += VarintLength(projection.columns.size());
  for (const std::string& column : projection.columns) {
    size += StringSize(column);
  }
  size += 1 + StringSize(aggregation.column) + 1 +  // kind, column, value kind
          VarintLength(aggregation.group_by_prefix_len);
  return size;
}

std::string PrefixSuccessor(const std::string& prefix) {
  std::string successor = prefix;
  while (!successor.empty()) {
    unsigned char last = static_cast<unsigned char>(successor.back());
    if (last < 0xff) {
      successor.back() = static_cast<char>(last + 1);
      return successor;
    }
    successor.pop_back();
  }
  return successor;  // empty: unbounded
}

}  // namespace logbase::query
