#include "rasql/executor.h"

#include <sstream>

#include "common/logging.h"
#include "rasql/parser.h"

namespace heaven::rasql {

namespace {

/// Region + slice plan derived from a subscript over a known domain.
struct SubscriptPlan {
  MdInterval trim;                  // box to read (slices pinned to [n,n])
  std::vector<size_t> slice_dims;   // dimensions to drop afterwards
};

Result<SubscriptPlan> PlanSubscript(const std::vector<SubscriptAxis>& axes,
                                    const MdInterval& domain) {
  if (axes.size() != domain.dims()) {
    return Status::InvalidArgument(
        "subscript has " + std::to_string(axes.size()) + " axes, object has " +
        std::to_string(domain.dims()) + " dimensions");
  }
  std::vector<int64_t> lo(domain.dims());
  std::vector<int64_t> hi(domain.dims());
  SubscriptPlan plan;
  for (size_t d = 0; d < axes.size(); ++d) {
    switch (axes[d].kind) {
      case SubscriptAxis::Kind::kWildcard:
        lo[d] = domain.lo(d);
        hi[d] = domain.hi(d);
        break;
      case SubscriptAxis::Kind::kRange:
        lo[d] = axes[d].lo;
        hi[d] = axes[d].hi;
        break;
      case SubscriptAxis::Kind::kSlice:
        lo[d] = axes[d].lo;
        hi[d] = axes[d].lo;
        plan.slice_dims.push_back(d);
        break;
    }
    if (lo[d] < domain.lo(d) || hi[d] > domain.hi(d)) {
      return Status::OutOfRange("subscript axis " + std::to_string(d) +
                                " outside domain " + domain.ToString());
    }
  }
  plan.trim = MdInterval(MdPoint(std::move(lo)), MdPoint(std::move(hi)));
  return plan;
}

/// Drops the sliced dimensions of `array` (descending order keeps indices
/// valid as dimensionality shrinks).
Result<MddArray> ApplySlices(MddArray array,
                             const std::vector<size_t>& slice_dims) {
  for (auto it = slice_dims.rbegin(); it != slice_dims.rend(); ++it) {
    const size_t dim = *it;
    HEAVEN_ASSIGN_OR_RETURN(array,
                            Slice(array, dim, array.domain().lo(dim)));
  }
  return array;
}

class Evaluator {
 public:
  /// `snap` pins one metadata version for the whole statement: every
  /// object name in the query resolves against the same consistent view,
  /// even while mutators commit concurrently. `ctx` carries the statement's
  /// QoS class, deadline and cancel token into every storage read.
  Evaluator(HeavenDb* db, DbSnapshotPtr snap, QueryContext ctx)
      : db_(db), snap_(std::move(snap)), ctx_(std::move(ctx)) {}

  Result<QueryResult> Eval(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        return QueryResult{expr.number};
      case ExprKind::kObjectRef: {
        HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                                snap_->FindObject(expr.object_name));
        HEAVEN_ASSIGN_OR_RETURN(MddArray array,
                                db_->ReadObject(object.object_id, ctx_));
        return QueryResult{std::move(array)};
      }
      case ExprKind::kSubscript:
        return EvalSubscript(expr);
      case ExprKind::kCondense:
        return EvalCondense(expr);
      case ExprKind::kFrame:
        return EvalFrame(expr);
      case ExprKind::kScale: {
        HEAVEN_ASSIGN_OR_RETURN(QueryResult child, Eval(*expr.child));
        if (child.is_scalar()) {
          return Status::InvalidArgument("scale() needs an array operand");
        }
        HEAVEN_ASSIGN_OR_RETURN(
            MddArray scaled, ScaleDown(child.array(), expr.scale_factor));
        return QueryResult{std::move(scaled)};
      }
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kCompare: {
        HEAVEN_ASSIGN_OR_RETURN(QueryResult lhs, Eval(*expr.child));
        HEAVEN_ASSIGN_OR_RETURN(QueryResult rhs, Eval(*expr.rhs));
        if (!rhs.is_scalar()) {
          return Status::InvalidArgument(
              "comparison right operand must be a scalar");
        }
        if (lhs.is_scalar()) {
          // scalar cmp scalar -> 0/1 scalar.
          MddArray one(MdInterval({0}, {0}), CellType::kDouble);
          one.Set(MdPoint{0}, lhs.scalar());
          HEAVEN_ASSIGN_OR_RETURN(MddArray mask,
                                  CompareScalar(one, expr.cmp, rhs.scalar()));
          return QueryResult{mask.At(MdPoint{0})};
        }
        HEAVEN_ASSIGN_OR_RETURN(
            MddArray mask, CompareScalar(lhs.array(), expr.cmp, rhs.scalar()));
        return QueryResult{std::move(mask)};
      }
      case ExprKind::kQuantifier: {
        // Pushdown: a quantifier over an induced comparison of (a trim of)
        // a stored object against a scalar literal is a membership query.
        // HeavenDb answers it from the bitmap index where possible,
        // fetching only the tiles the index cannot decide.
        const Expr* cmp = expr.child.get();
        if (cmp->kind == ExprKind::kCompare && cmp->rhs != nullptr &&
            cmp->rhs->kind == ExprKind::kNumber) {
          const Expr* lhs = cmp->child.get();
          std::optional<ObjectId> object_id;
          std::optional<MdInterval> region;
          if (lhs->kind == ExprKind::kObjectRef) {
            HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                                    snap_->FindObject(lhs->object_name));
            object_id = object.object_id;
            region = object.domain;
          } else if (lhs->kind == ExprKind::kSubscript &&
                     lhs->child->kind == ExprKind::kObjectRef) {
            HEAVEN_ASSIGN_OR_RETURN(
                ObjectDescriptor object,
                snap_->FindObject(lhs->child->object_name));
            HEAVEN_ASSIGN_OR_RETURN(SubscriptPlan plan,
                                    PlanSubscript(lhs->axes, object.domain));
            if (plan.slice_dims.empty()) {
              object_id = object.object_id;
              region = plan.trim;
            }
          }
          if (object_id.has_value()) {
            CellPredicate pred;
            pred.cmp = cmp->cmp;
            pred.value = cmp->rhs->number;
            HEAVEN_ASSIGN_OR_RETURN(
                bool holds, db_->EvaluateQuantifier(*object_id, *region, pred,
                                                    expr.universal, ctx_));
            return QueryResult{holds ? 1.0 : 0.0};
          }
        }
        HEAVEN_ASSIGN_OR_RETURN(QueryResult child, Eval(*expr.child));
        if (child.is_scalar()) {
          return Status::InvalidArgument("quantifier needs an array operand");
        }
        if (expr.universal) {
          HEAVEN_ASSIGN_OR_RETURN(bool all, AllCells(child.array()));
          return QueryResult{all ? 1.0 : 0.0};
        }
        HEAVEN_ASSIGN_OR_RETURN(bool some, SomeCells(child.array()));
        return QueryResult{some ? 1.0 : 0.0};
      }
    }
    return Status::Internal("unknown expression kind");
  }

 private:
  Result<QueryResult> EvalSubscript(const Expr& expr) {
    // Pushdown: subscript directly over an object reference becomes a
    // region read across the storage hierarchy.
    if (expr.child->kind == ExprKind::kObjectRef) {
      HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                              snap_->FindObject(expr.child->object_name));
      HEAVEN_ASSIGN_OR_RETURN(SubscriptPlan plan,
                              PlanSubscript(expr.axes, object.domain));
      HEAVEN_ASSIGN_OR_RETURN(
          MddArray array, db_->ReadRegion(object.object_id, plan.trim, ctx_));
      HEAVEN_ASSIGN_OR_RETURN(array,
                              ApplySlices(std::move(array), plan.slice_dims));
      return QueryResult{std::move(array)};
    }
    HEAVEN_ASSIGN_OR_RETURN(QueryResult child, Eval(*expr.child));
    if (child.is_scalar()) {
      return Status::InvalidArgument("cannot subscript a scalar");
    }
    HEAVEN_ASSIGN_OR_RETURN(
        SubscriptPlan plan, PlanSubscript(expr.axes, child.array().domain()));
    HEAVEN_ASSIGN_OR_RETURN(MddArray trimmed,
                            Trim(child.array(), plan.trim));
    HEAVEN_ASSIGN_OR_RETURN(trimmed,
                            ApplySlices(std::move(trimmed), plan.slice_dims));
    return QueryResult{std::move(trimmed)};
  }

  Result<QueryResult> EvalCondense(const Expr& expr) {
    // Pushdown: condenser over (a trim of) an object reference goes through
    // Aggregate, which consults the precomputed-results catalog.
    const Expr* child = expr.child.get();
    if (child->kind == ExprKind::kObjectRef) {
      HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                              snap_->FindObject(child->object_name));
      HEAVEN_ASSIGN_OR_RETURN(
          double value, db_->Aggregate(object.object_id, expr.condenser,
                                       object.domain, ctx_));
      return QueryResult{value};
    }
    if (child->kind == ExprKind::kSubscript &&
        child->child->kind == ExprKind::kObjectRef) {
      HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                              snap_->FindObject(child->child->object_name));
      HEAVEN_ASSIGN_OR_RETURN(SubscriptPlan plan,
                              PlanSubscript(child->axes, object.domain));
      if (plan.slice_dims.empty()) {
        HEAVEN_ASSIGN_OR_RETURN(
            double value, db_->Aggregate(object.object_id, expr.condenser,
                                         plan.trim, ctx_));
        return QueryResult{value};
      }
    }
    HEAVEN_ASSIGN_OR_RETURN(QueryResult child_value, Eval(*expr.child));
    if (child_value.is_scalar()) {
      return Status::InvalidArgument("cannot condense a scalar");
    }
    HEAVEN_ASSIGN_OR_RETURN(double condensed,
                            Condense(child_value.array(), expr.condenser));
    return QueryResult{condensed};
  }

  Result<QueryResult> EvalFrame(const Expr& expr) {
    if (expr.child->kind != ExprKind::kObjectRef) {
      return Status::InvalidArgument(
          "frame() must be applied directly to a stored object");
    }
    HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                            snap_->FindObject(expr.child->object_name));
    HEAVEN_ASSIGN_OR_RETURN(ObjectFrame frame,
                            ObjectFrame::FromBoxes(expr.frame_boxes));
    HEAVEN_ASSIGN_OR_RETURN(MddArray array,
                            db_->ReadFrame(object.object_id, frame, ctx_));
    return QueryResult{std::move(array)};
  }

  Result<QueryResult> EvalBinary(const Expr& expr) {
    HEAVEN_ASSIGN_OR_RETURN(QueryResult lhs, Eval(*expr.child));
    HEAVEN_ASSIGN_OR_RETURN(QueryResult rhs, Eval(*expr.rhs));
    if (lhs.is_scalar() && rhs.is_scalar()) {
      switch (expr.op) {
        case InducedOp::kAdd:
          return QueryResult{lhs.scalar() + rhs.scalar()};
        case InducedOp::kSub:
          return QueryResult{lhs.scalar() - rhs.scalar()};
        case InducedOp::kMul:
          return QueryResult{lhs.scalar() * rhs.scalar()};
        case InducedOp::kDiv:
          return QueryResult{rhs.scalar() == 0.0 ? 0.0
                                                 : lhs.scalar() / rhs.scalar()};
        default:
          return Status::InvalidArgument("unsupported scalar operation");
      }
    }
    if (!lhs.is_scalar() && !rhs.is_scalar()) {
      HEAVEN_ASSIGN_OR_RETURN(
          MddArray result, InducedBinary(lhs.array(), rhs.array(), expr.op));
      return QueryResult{std::move(result)};
    }
    // Array/scalar in either order. For subtraction/division the order
    // matters; scalar-first forms are rewritten via the induced op.
    if (!lhs.is_scalar()) {
      HEAVEN_ASSIGN_OR_RETURN(
          MddArray result, InducedScalar(lhs.array(), expr.op, rhs.scalar()));
      return QueryResult{std::move(result)};
    }
    // scalar OP array: only + and * commute.
    if (expr.op == InducedOp::kAdd || expr.op == InducedOp::kMul) {
      HEAVEN_ASSIGN_OR_RETURN(
          MddArray result, InducedScalar(rhs.array(), expr.op, lhs.scalar()));
      return QueryResult{std::move(result)};
    }
    return Status::InvalidArgument(
        "scalar on the left of '-' or '/' is not supported");
  }

  HeavenDb* db_;
  DbSnapshotPtr snap_;
  QueryContext ctx_;
};

}  // namespace

std::string QueryResult::ToString() const {
  if (is_scalar()) {
    std::ostringstream out;
    out << scalar();
    return out.str();
  }
  const MddArray& a = array();
  std::ostringstream out;
  out << "array " << a.domain().ToString() << " of "
      << CellTypeName(a.cell_type()) << " (" << a.size_bytes() << " bytes)";
  return out.str();
}

Result<QueryResult> Execute(HeavenDb* db, const Query& query) {
  // The FROM clause names a collection; verify it exists so typos fail
  // loudly rather than silently resolving objects across collections.
  if (!db->engine()->catalog()->FindCollection(query.from).has_value()) {
    return Status::NotFound("collection " + query.from);
  }
  QueryProfiler::Scope profile(db->profiler(), "rasql");
  ScopedSpan span(db->stats()->trace(), "rasql.execute");
  const double client_before = db->ClientSeconds();
  db->stats()->Record(Ticker::kRasqlStatements);
  // WITH clauses become the QueryContext every storage read below carries.
  // The deadline starts ticking now, on the tape clock — parse time (sim-free)
  // is not charged against it.
  QueryContext ctx;
  if (query.qos_class.has_value()) ctx.qos = *query.qos_class;
  if (query.deadline_s.has_value()) {
    ctx.deadline =
        Deadline::AfterSimSeconds(db->library()->clock(), *query.deadline_s);
  }
  Evaluator evaluator(db, db->AcquireReadSnapshot(), std::move(ctx));
  Result<QueryResult> result = evaluator.Eval(*query.select);
  db->stats()->RecordHistogram(HistogramKind::kRasqlStatementSeconds,
                               db->ClientSeconds() - client_before);
  return result;
}

Result<QueryResult> ExecuteString(HeavenDb* db, const std::string& text) {
  // The statement's profile opens here so parse/plan time is part of it;
  // Execute's nested Scope then folds into this one (same thread).
  QueryProfiler::Scope profile(db->profiler(), "rasql");
  Result<Query> query = [&] {
    ScopedSpan span(db->stats()->trace(), "rasql.parse",
                    ProfileStage::kParsePlan);
    return Parse(text);
  }();
  HEAVEN_RETURN_IF_ERROR(query.status());
  return Execute(db, query.value());
}

}  // namespace heaven::rasql
