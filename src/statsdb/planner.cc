#include "statsdb/planner.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "statsdb/database.h"
#include "statsdb/plan.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {
namespace {

/// Re-applies the not-pushable conjuncts above `node` (in evaluation
/// order: the list is folded left-associatively, deepest first).
PlanPtr WrapFilter(const std::vector<ExprPtr>& pending, PlanPtr node) {
  ExprPtr p = AndFold(pending);
  return p == nullptr ? node : MakeFilter(std::move(node), p);
}

/// `column = key` on either side, `key` a literal or a `?` placeholder.
std::optional<IndexKey> MatchIndexKey(const Expr& e) {
  if (e.kind() != Expr::Kind::kBinary || e.binary_op() != BinaryOp::kEq) {
    return std::nullopt;
  }
  auto is_key = [](const ExprPtr& x) {
    return x->kind() == Expr::Kind::kLiteral ||
           x->kind() == Expr::Kind::kParam;
  };
  ExprPtr a = e.child(0), b = e.child(1);
  if (a->kind() == Expr::Kind::kColumn && is_key(b)) {
    return IndexKey{*a->column(), b};
  }
  if (is_key(a) && b->kind() == Expr::Kind::kColumn) {
    return IndexKey{*b->column(), a};
  }
  return std::nullopt;
}

/// Sets `limit_hint` on the Sort feeding a Limit, descending through
/// Project nodes only (anything else — Distinct, Filter, Aggregate —
/// consumes or reshapes rows, so truncating the sort would be wrong).
PlanPtr AnnotateTopK(const PlanPtr& plan, size_t hint) {
  if (plan->kind() == PlanKind::kSort) {
    const auto& n = static_cast<const SortNode&>(*plan);
    size_t merged = n.limit_hint == 0 ? hint : std::min(n.limit_hint, hint);
    return std::make_shared<SortNode>(n.input, n.keys, merged);
  }
  if (plan->kind() == PlanKind::kProject) {
    const auto& n = static_cast<const ProjectNode&>(*plan);
    PlanPtr child = AnnotateTopK(n.input, hint);
    if (child == n.input) return plan;
    return std::make_shared<ProjectNode>(std::move(child), n.items);
  }
  return plan;
}

/// Pushes `pending` (conjuncts over `node`'s output, in evaluation
/// order) as deep as legality allows, returning the rewritten subtree.
PlanPtr Push(const PlanPtr& node, std::vector<ExprPtr> pending,
             const Database& db) {
  switch (node->kind()) {
    case PlanKind::kFilter: {
      const auto& n = static_cast<const FilterNode&>(*node);
      util::StatusOr<Schema> in_schema = InferSchema(*n.input, db);
      bool splittable = false;
      if (in_schema.ok()) {
        // Only dismantle a well-typed boolean filter; an ill-typed one
        // must stay intact so execution reports the reference error.
        auto t = n.predicate->ResultType(*in_schema);
        splittable =
            t.ok() && (*t == DataType::kBool || *t == DataType::kNull);
      }
      if (!splittable) {
        return WrapFilter(pending,
                          MakeFilter(Push(n.input, {}, db), n.predicate));
      }
      std::vector<ExprPtr> mine;
      SplitConjuncts(n.predicate, &mine);
      mine.insert(mine.end(), pending.begin(), pending.end());
      return Push(n.input, std::move(mine), db);
    }

    case PlanKind::kSort: {
      const auto& n = static_cast<const SortNode&>(*node);
      return std::make_shared<SortNode>(Push(n.input, std::move(pending), db),
                                        n.keys, n.limit_hint);
    }

    case PlanKind::kDistinct: {
      const auto& n = static_cast<const DistinctNode&>(*node);
      return std::make_shared<DistinctNode>(
          Push(n.input, std::move(pending), db));
    }

    case PlanKind::kLimit: {
      const auto& n = static_cast<const LimitNode&>(*node);
      PlanPtr child = Push(n.input, {}, db);
      if (n.limit <= std::numeric_limits<size_t>::max() - n.offset) {
        child = AnnotateTopK(child, n.offset + n.limit);
      }
      return WrapFilter(pending, std::make_shared<LimitNode>(
                                     std::move(child), n.limit, n.offset));
    }

    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(*node);
      // A conjunct crosses the project iff every column it references
      // resolves (first case-insensitive match, as IndexOf would) to a
      // pass-through item, i.e. a bare input column.
      auto passthrough = [&](const std::string& name) -> const std::string* {
        for (const auto& item : n.items) {
          const std::string& out =
              item.alias.empty() ? item.expr->ToString() : item.alias;
          if (util::EqualsIgnoreCase(out, name)) {
            return item.expr->kind() == Expr::Kind::kColumn
                       ? item.expr->column()
                       : nullptr;
          }
        }
        return nullptr;
      };
      std::vector<ExprPtr> below, keep;
      for (const auto& c : pending) {
        std::vector<std::string> cols;
        CollectColumns(*c, &cols);
        bool ok = true;
        for (const auto& col : cols) {
          if (passthrough(col) == nullptr) {
            ok = false;
            break;
          }
        }
        if (ok) {
          below.push_back(RewriteColumns(
              c, [&](const std::string& name) { return *passthrough(name); }));
        } else {
          keep.push_back(c);
        }
      }
      return WrapFilter(keep, std::make_shared<ProjectNode>(
                                  Push(n.input, std::move(below), db),
                                  n.items));
    }

    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(*node);
      util::StatusOr<Schema> in_schema = InferSchema(*n.input, db);
      std::vector<size_t> key_cols;
      util::StatusOr<Schema> out_schema =
          in_schema.ok()
              ? AggOutputSchema(*in_schema, n.group_by, n.aggs, &key_cols)
              : in_schema.status();
      std::vector<ExprPtr> below, keep;
      for (const auto& c : pending) {
        bool ok = out_schema.ok();
        if (ok) {
          std::vector<std::string> cols;
          CollectColumns(*c, &cols);
          for (const auto& col : cols) {
            // Only group-by key columns exist below the aggregate (they
            // keep their input names, so no rewrite is needed).
            auto idx = out_schema->IndexOf(col);
            if (!idx.ok() || *idx >= n.group_by.size()) {
              ok = false;
              break;
            }
          }
        }
        (ok ? below : keep).push_back(c);
      }
      return WrapFilter(keep, std::make_shared<AggregateNode>(
                                  Push(n.input, std::move(below), db),
                                  n.group_by, n.aggs));
    }

    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(*node);
      util::StatusOr<Schema> ls = InferSchema(*n.left, db);
      util::StatusOr<Schema> rs = InferSchema(*n.right, db);
      if (!ls.ok() || !rs.ok()) {
        return WrapFilter(pending, std::make_shared<HashJoinNode>(
                                       Push(n.left, {}, db),
                                       Push(n.right, {}, db), n.left_col,
                                       n.right_col));
      }
      Schema out = JoinOutputSchema(*ls, *rs);
      size_t lwidth = ls->num_columns();
      std::vector<ExprPtr> to_left, to_right, keep;
      for (const auto& c : pending) {
        std::vector<std::string> cols;
        CollectColumns(*c, &cols);
        bool all_left = !cols.empty(), all_right = !cols.empty(), ok = true;
        for (const auto& col : cols) {
          auto idx = out.IndexOf(col);
          if (!idx.ok()) {
            ok = false;
            break;
          }
          (*idx < lwidth ? all_right : all_left) = false;
        }
        if (!ok || (!all_left && !all_right)) {
          keep.push_back(c);
        } else if (all_left) {
          to_left.push_back(c);
        } else {
          // Undo the "_r" clash renaming for the right side.
          to_right.push_back(
              RewriteColumns(c, [&](const std::string& name) {
                auto idx = out.IndexOf(name);
                return rs->column(*idx - lwidth).name;
              }));
        }
      }
      return WrapFilter(keep, std::make_shared<HashJoinNode>(
                                  Push(n.left, std::move(to_left), db),
                                  Push(n.right, std::move(to_right), db),
                                  n.left_col, n.right_col));
    }

    case PlanKind::kScan: {
      const auto& n = static_cast<const ScanNode&>(*node);
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(n.predicate, &conjuncts);
      conjuncts.insert(conjuncts.end(), pending.begin(), pending.end());
      if (conjuncts.empty()) return node;

      std::vector<IndexKey> index_keys = n.index_keys;
      auto table = db.table(n.table);
      if (index_keys.empty() && table.ok()) {
        const Schema& schema = (*table)->schema();
        for (const auto& c : conjuncts) {
          auto k = MatchIndexKey(*c);
          if (!k.has_value() || !(*table)->HasIndex(k->column)) continue;
          auto idx = schema.IndexOf(k->column);
          if (!idx.ok()) continue;
          // A `?` is checked when the scan is prepared, after binding; a
          // later key serves if its bound value fails the check.
          if (k->key->kind() == Expr::Kind::kParam) {
            index_keys.push_back(std::move(*k));
            continue;
          }
          // The residual check re-evaluates the conjunct, but only over
          // looked-up rows — an unusable literal must take the full scan.
          if (!IndexKeyUsable(schema.column(*idx).type, *k->key->literal())) {
            continue;
          }
          index_keys.push_back(std::move(*k));
          break;
        }
      }
      return std::make_shared<ScanNode>(n.table, AndFold(conjuncts),
                                        std::move(index_keys));
    }
  }
  return node;
}

}  // namespace

PlanPtr OptimizePlan(const PlanPtr& plan, const Database& db) {
  if (plan == nullptr) return plan;
  return Push(plan, {}, db);
}

}  // namespace statsdb
}  // namespace ff
