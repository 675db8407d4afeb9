#include "query/evaluator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/governor.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "query/formula_builder.h"
#include "query/parser.h"
#include "query/path_walker.h"

namespace lyric {

namespace {

constexpr int kMaxWhereDepth = 64;

// Groups walk results by (extended) binding, collecting the tail sets —
// the "value of a path expression" XSQL compares (§2.2).
std::map<Binding, std::set<Oid>> GroupWalks(std::vector<PathResult> results) {
  std::map<Binding, std::set<Oid>> out;
  for (PathResult& r : results) {
    out[r.binding].insert(r.tail);
  }
  return out;
}

Result<bool> CompareSets(const std::set<Oid>& lhs, const std::string& op,
                         const std::set<Oid>& rhs) {
  if (op == "=") return lhs == rhs;
  if (op == "!=") return lhs != rhs;
  if (op == "contains") {
    return std::includes(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
  }
  // Ordered comparison: both sides must be singletons of comparable kind.
  if (lhs.size() != 1 || rhs.size() != 1) {
    return Status::TypeError("ordered comparison '" + op +
                             "' needs single-valued operands");
  }
  const Oid& a = *lhs.begin();
  const Oid& b = *rhs.begin();
  int cmp;
  if (a.IsNumeric() && b.IsNumeric()) {
    cmp = a.AsNumeric().Compare(b.AsNumeric());
  } else if (a.kind() == b.kind() &&
             (a.kind() == OidKind::kString || a.kind() == OidKind::kSymbol)) {
    cmp = a.AsString().compare(b.AsString());
  } else {
    return Status::TypeError("cannot order-compare " + a.ToString() +
                             " with " + b.ToString());
  }
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  if (op == ">=") return cmp >= 0;
  return Status::Internal("bad comparison operator '" + op + "'");
}

// Maximization over a disjunctive existential body (the SELECT-clause
// MAX/MIN operator of §4.2 works on existential conjunctive formulas; we
// accept the disjunctive generalization, taking the best disjunct).
Result<LpSolution> MaximizeDe(const DisjunctiveExistential& de,
                              const LinearExpr& objective, bool maximize) {
  LpSolution best;
  best.status = LpStatus::kInfeasible;
  LinearExpr dir = maximize ? objective : -objective;
  for (const ExistentialConjunction& ec : de.disjuncts()) {
    ExistentialConjunction fresh = ec.FreshenBound();
    LYRIC_ASSIGN_OR_RETURN(LpSolution sol,
                           Simplex::Maximize(dir, fresh.body()));
    if (sol.status == LpStatus::kInfeasible) continue;
    if (sol.status == LpStatus::kUnbounded) {
      best = sol;
      break;
    }
    if (best.status != LpStatus::kOptimal || sol.value > best.value ||
        (sol.value == best.value && sol.attained && !best.attained)) {
      best = sol;
    }
  }
  if (best.status == LpStatus::kOptimal && !maximize) {
    best.value = -best.value;
  }
  return best;
}

// Converts a governor trip into the partial-result contract: the typed
// Status and the usage report ride on the (OK) ResultSet.
ResultSet GovernedPartial(ResultSet out, exec::CancellationToken& token) {
  LYRIC_OBS_COUNT("evaluator.governor_trips");
  out.set_governor(token.ToStatus(), token.Report());
  return out;
}

}  // namespace

Result<ResultSet> Evaluator::Execute(const std::string& query_text) {
  return Install(Evaluate(query_text));
}

Evaluation Evaluator::Evaluate(const std::string& query_text) {
  const uint64_t slow_ms = obs::QueryLog::Global().slow_ms();
  static obs::Gauge& active_gauge =
      obs::Registry::Global().GetGauge("evaluator.active_queries");
  active_gauge.Add(1);
  const auto start = std::chrono::steady_clock::now();

  // A trace is collected when the caller asked for one, or silently when
  // the slow-query threshold is armed so a slow record can carry its
  // per-stage profile. The profile, and the registry snapshots its
  // counter deltas come from, only attach to the ResultSet under
  // collect_trace — the silent trace exists solely for the log.
  obs::QueryContext context;
  std::shared_ptr<obs::QueryProfile> profile;
  if (options_.collect_trace || slow_ms > 0) {
    profile = std::make_shared<obs::QueryProfile>();
    context.trace = &profile->trace;
    if (options_.collect_trace) {
      profile->counters_before = obs::Registry::Global().Snapshot();
    }
  }
  // The context covers the parse and every admission attempt; transient
  // failures (shed admissions) are retried under the configured policy.
  AdmissionInfo admission;
  std::optional<ast::Query> query;
  ViewRows view_rows;
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    obs::QueryContextScope scope(&context);
    {
      obs::Span span("parse");
      Result<ast::Query> parsed = ParseQuery(query_text);
      if (!parsed.ok()) return parsed.status();
      query.emplace(std::move(*parsed));
    }
    return exec::RunWithRetry(
        options_.retry,
        [&] { return ExecuteImpl(*query, &context, &admission, &view_rows); },
        &admission.retries);
  }();
  if (profile != nullptr) {
    profile->trace.Finish();
    if (options_.collect_trace && result.ok()) {
      profile->counters_after = obs::Registry::Global().Snapshot();
      result->set_profile(profile);
    }
  }

  const uint64_t duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  LYRIC_OBS_RECORD("query.latency", duration_ns);
  active_gauge.Add(-1);

  obs::QueryLogRecord rec;
  rec.query = query_text;
  rec.query_hash = obs::HashQueryText(rec.query);
  rec.duration_ns = duration_ns;
  rec.queue_wait_ns = admission.queue_wait_ns;
  rec.admission = admission.mode;
  rec.retries = admission.retries;
  rec.cache_hits = context.cache_hits;
  rec.cache_misses = context.cache_misses;
  // Surface the admission facts on the result so callers that cannot
  // reach the query log (the network server serializing a response) still
  // see how the scheduler treated this query.
  if (result.ok()) result->set_admission(std::move(admission));
  rec.slow = slow_ms > 0 && duration_ns >= slow_ms * 1000000ull;
  if (rec.slow) {
    LYRIC_OBS_COUNT("evaluator.slow_queries");
    if (profile != nullptr) rec.stages = profile->trace.ToPrettyString();
  }
  return Evaluation(std::move(query), std::move(result), std::move(view_rows),
                    std::move(rec));
}

Result<ResultSet> Evaluator::Install(Evaluation evaluation) {
  Result<ResultSet>& result = evaluation.result_;
  if (result.ok()) {
    for (const auto& [binding, row] : evaluation.view_rows_) {
      Status st = MaterializeView(*evaluation.query_, binding, row);
      if (!st.ok()) {
        result = st;
        break;
      }
    }
  }

  obs::QueryLogRecord& rec = evaluation.log_record_;
  if (result.ok()) {
    rec.status = "ok";
    rec.rows = result->size();
    rec.truncated = result->truncated();
    const Status& governor = result->governor_status();
    if (!governor.ok()) {
      // The closed vocabulary the log documents; any future trip kind
      // falls through to its status-code name rather than "".
      rec.governor = governor.code() == StatusCode::kDeadlineExceeded
                         ? "deadline"
                     : governor.code() == StatusCode::kResourceExhausted
                         ? "memory"
                         : StatusCodeToString(governor.code());
    }
  } else {
    rec.status = StatusCodeToString(result.status().code());
  }
  obs::QueryLog::Global().Append(std::move(rec));
  return std::move(result);
}

Result<std::vector<Binding>> Evaluator::EnumerateFrom(
    const ast::Query& query) const {
  std::vector<Binding> bindings{Binding{}};
  for (const ast::FromItem& item : query.from) {
    if (!db_->schema().HasClass(item.class_name)) {
      return Status::NotFound("FROM: unknown class '" + item.class_name +
                              "'");
    }
    std::vector<Oid> extent = db_->Extent(item.class_name);
    std::vector<Binding> next;
    next.reserve(bindings.size() * extent.size());
    for (const Binding& b : bindings) {
      for (const Oid& oid : extent) {
        // Repeated FROM variables must agree (consistency, §2.2).
        auto it = b.vars.find(item.var);
        if (it != b.vars.end()) {
          if (it->second == oid) next.push_back(b);
          continue;
        }
        Binding nb = b;
        nb.vars[item.var] = oid;
        LYRIC_ASSIGN_OR_RETURN(IfaceMap iface, DefaultIfaceMap(oid, *db_));
        nb.iface_maps[item.var] = std::move(iface);
        next.push_back(std::move(nb));
      }
    }
    bindings = std::move(next);
  }
  return bindings;
}

Result<std::vector<Binding>> Evaluator::EvalWhere(
    const ast::WhereExpr& where, const Binding& binding,
    const std::set<std::string>& declared, int depth) const {
  if (depth > kMaxWhereDepth) {
    return Status::InvalidArgument("WHERE clause nesting too deep");
  }
  using Kind = ast::WhereExpr::Kind;
  switch (where.kind) {
    case Kind::kAnd: {
      std::vector<Binding> current{binding};
      for (const auto& child : where.children) {
        std::vector<Binding> next;
        for (const Binding& b : current) {
          LYRIC_ASSIGN_OR_RETURN(std::vector<Binding> sub,
                                 EvalWhere(*child, b, declared, depth + 1));
          for (Binding& nb : sub) next.push_back(std::move(nb));
        }
        current = std::move(next);
        if (current.empty()) break;
      }
      return current;
    }
    case Kind::kOr: {
      std::vector<Binding> out;
      for (const auto& child : where.children) {
        LYRIC_ASSIGN_OR_RETURN(std::vector<Binding> sub,
                               EvalWhere(*child, binding, declared,
                                         depth + 1));
        for (Binding& b : sub) {
          if (std::find(out.begin(), out.end(), b) == out.end()) {
            out.push_back(std::move(b));
          }
        }
      }
      return out;
    }
    case Kind::kNot: {
      LYRIC_ASSIGN_OR_RETURN(
          std::vector<Binding> sub,
          EvalWhere(*where.children[0], binding, declared, depth + 1));
      std::vector<Binding> out;
      if (sub.empty()) out.push_back(binding);
      return out;
    }
    case Kind::kPathPred: {
      LYRIC_ASSIGN_OR_RETURN(std::vector<PathResult> walks,
                             WalkPath(where.path, binding, *db_, declared));
      std::vector<Binding> out;
      for (PathResult& r : walks) {
        if (std::find(out.begin(), out.end(), r.binding) == out.end()) {
          out.push_back(std::move(r.binding));
        }
      }
      return out;
    }
    case Kind::kCompare: {
      // Walk the lhs (may extend the binding), then the rhs under each
      // lhs extension, and compare tail sets.
      std::map<Binding, std::set<Oid>> lhs_groups;
      if (where.cmp_lhs.kind == ast::WhereExpr::Operand::Kind::kLiteral) {
        lhs_groups[binding] = {where.cmp_lhs.literal};
      } else {
        LYRIC_ASSIGN_OR_RETURN(
            std::vector<PathResult> walks,
            WalkPath(where.cmp_lhs.path, binding, *db_, declared));
        lhs_groups = GroupWalks(std::move(walks));
      }
      std::vector<Binding> out;
      for (const auto& [b1, set1] : lhs_groups) {
        std::map<Binding, std::set<Oid>> rhs_groups;
        if (where.cmp_rhs.kind == ast::WhereExpr::Operand::Kind::kLiteral) {
          rhs_groups[b1] = {where.cmp_rhs.literal};
        } else {
          LYRIC_ASSIGN_OR_RETURN(
              std::vector<PathResult> walks,
              WalkPath(where.cmp_rhs.path, b1, *db_, declared));
          rhs_groups = GroupWalks(std::move(walks));
        }
        for (const auto& [b2, set2] : rhs_groups) {
          LYRIC_ASSIGN_OR_RETURN(bool holds,
                                 CompareSets(set1, where.cmp_op, set2));
          if (holds &&
              std::find(out.begin(), out.end(), b2) == out.end()) {
            out.push_back(b2);
          }
        }
      }
      return out;
    }
    case Kind::kFormulaSat: {
      FormulaBuilder fb(db_, &declared);
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential de,
                             fb.Build(*where.formula, binding));
      LYRIC_ASSIGN_OR_RETURN(bool sat, de.Satisfiable());
      std::vector<Binding> out;
      if (sat) out.push_back(binding);
      return out;
    }
    case Kind::kEntails: {
      // When both sides are bare predicate uses (the Region pattern
      // "U |= X"), the dimensions align positionally — a FROM-bound CST
      // variable carries no schema dimension names.
      auto resolve_bare = [&](const ast::Formula& f) -> Result<CstObject> {
        if (f.kind != ast::Formula::Kind::kPred || f.pred_args.has_value()) {
          return Status::InvalidArgument("not a bare predicate");
        }
        LYRIC_ASSIGN_OR_RETURN(std::vector<PathResult> walks,
                               WalkPath(*f.pred, binding, *db_, declared));
        if (walks.size() != 1 || !walks[0].tail.IsCst()) {
          return Status::InvalidArgument("not a single CST value");
        }
        return db_->GetCst(walks[0].tail);
      };
      Result<CstObject> lhs_obj = resolve_bare(*where.ent_lhs);
      Result<CstObject> rhs_obj = resolve_bare(*where.ent_rhs);
      if (lhs_obj.ok() && rhs_obj.ok() &&
          lhs_obj->Dimension() == rhs_obj->Dimension()) {
        LYRIC_ASSIGN_OR_RETURN(bool holds, lhs_obj->Entails(*rhs_obj));
        std::vector<Binding> out;
        if (holds) out.push_back(binding);
        return out;
      }
      FormulaBuilder fb(db_, &declared);
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential lhs,
                             fb.Build(*where.ent_lhs, binding));
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential rhs,
                             fb.Build(*where.ent_rhs, binding));
      LYRIC_ASSIGN_OR_RETURN(bool holds, lhs.Entails(rhs));
      std::vector<Binding> out;
      if (holds) out.push_back(binding);
      return out;
    }
  }
  return Status::Internal("bad WHERE node");
}

Result<Oid> Evaluator::EvalOptimize(const ast::SelectItem& item,
                                    const Binding& binding,
                                    const std::set<std::string>& declared) {
  FormulaBuilder fb(db_, &declared);
  // For a projection body, optimize over the unprojected formula: the
  // objective may only use the projection variables, and sup over the
  // projection equals sup over the body.
  const ast::Formula* body = item.formula.get();
  if (body->kind == ast::Formula::Kind::kProject) {
    body = body->children[0].get();
  }
  LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential de, fb.Build(*body, binding));
  LYRIC_ASSIGN_OR_RETURN(LinearExpr objective,
                         fb.BuildArith(*item.objective, binding));
  bool maximize = item.opt == ast::SelectItem::OptKind::kMax ||
                  item.opt == ast::SelectItem::OptKind::kMaxPoint;
  LYRIC_ASSIGN_OR_RETURN(LpSolution sol, MaximizeDe(de, objective, maximize));
  if (sol.status == LpStatus::kInfeasible) {
    return Status::NotFound("MAX/MIN SUBJECT TO: constraints infeasible");
  }
  if (sol.status == LpStatus::kUnbounded) {
    return Status::InvalidArgument(
        "MAX/MIN SUBJECT TO: objective is unbounded");
  }
  if (item.opt == ast::SelectItem::OptKind::kMax ||
      item.opt == ast::SelectItem::OptKind::kMin) {
    return Oid::Real(sol.value);
  }
  // MAX_POINT / MIN_POINT: the witness as a point CST object over the
  // objective's variables (plus the projection variables when given).
  VarSet dims = objective.FreeVars();
  if (item.formula->kind == ast::Formula::Kind::kProject) {
    for (const std::string& v : item.formula->proj_vars) {
      dims.insert(Variable::Intern(v));
    }
  }
  Conjunction point;
  std::vector<VarId> interface_vars(dims.begin(), dims.end());
  for (VarId v : interface_vars) {
    auto it = sol.point.find(v);
    Rational value = it == sol.point.end() ? Rational(0) : it->second;
    point.Add(LinearConstraint::Eq(LinearExpr::Var(v),
                                   LinearExpr::Constant(value)));
  }
  LYRIC_ASSIGN_OR_RETURN(CstObject obj,
                         CstObject::FromConjunction(interface_vars, point));
  LYRIC_OBS_COUNT("evaluator.cst_constructed");
  return db_->InternCst(obj);
}

Result<std::vector<std::vector<Oid>>> Evaluator::EvalSelect(
    const ast::Query& query, const Binding& binding,
    const std::set<std::string>& declared) {
  std::vector<std::vector<Oid>> options_per_item;
  for (const ast::SelectItem& item : query.select) {
    std::vector<Oid> options;
    switch (item.kind) {
      case ast::SelectItem::Kind::kPath: {
        LYRIC_ASSIGN_OR_RETURN(std::vector<PathResult> walks,
                               WalkPath(item.path, binding, *db_, declared));
        std::set<Oid> tails;
        for (PathResult& r : walks) tails.insert(std::move(r.tail));
        options.assign(tails.begin(), tails.end());
        break;
      }
      case ast::SelectItem::Kind::kFormulaObject: {
        FormulaBuilder fb(db_, &declared);
        CstObject obj;
        {
          obs::Span span("construct_cst");
          LYRIC_ASSIGN_OR_RETURN(
              obj,
              fb.BuildProjectionObject(*item.formula, binding,
                                       options_.eager_select_projection));
        }
        CstObject canon;
        {
          obs::Span span("canonicalize");
          LYRIC_ASSIGN_OR_RETURN(canon,
                                 obj.Canonicalize(options_.canonical_level));
        }
        LYRIC_ASSIGN_OR_RETURN(Oid oid, db_->InternCst(canon));
        LYRIC_OBS_COUNT("evaluator.cst_constructed");
        options.push_back(std::move(oid));
        break;
      }
      case ast::SelectItem::Kind::kOptimize: {
        Result<Oid> oid = EvalOptimize(item, binding, declared);
        if (!oid.ok()) {
          if (oid.status().IsNotFound()) break;  // Infeasible: no row.
          return oid.status();
        }
        options.push_back(std::move(oid).value());
        break;
      }
    }
    if (options.empty()) return std::vector<std::vector<Oid>>{};
    options_per_item.push_back(std::move(options));
  }
  // Cartesian product across items.
  std::vector<std::vector<Oid>> rows{{}};
  for (const std::vector<Oid>& options : options_per_item) {
    std::vector<std::vector<Oid>> next;
    next.reserve(rows.size() * options.size());
    for (const std::vector<Oid>& row : rows) {
      for (const Oid& oid : options) {
        std::vector<Oid> extended = row;
        extended.push_back(oid);
        next.push_back(std::move(extended));
        if (next.size() > options_.max_rows) {
          return Status::InvalidArgument("result exceeds max_rows");
        }
      }
    }
    rows = std::move(next);
  }
  return rows;
}

Status Evaluator::MaterializeView(const ast::Query& query,
                                  const Binding& binding,
                                  const std::vector<Oid>& row) {
  // Resolve the class name: a view named by a bound query variable (the
  // higher-order Region pattern) makes one class per binding.
  std::string class_name = query.view_name;
  auto vit = binding.vars.find(query.view_name);
  if (vit != binding.vars.end()) {
    class_name = vit->second.ToString();
  }
  if (!db_->schema().HasClass(class_name)) {
    ClassDef def;
    def.name = class_name;
    def.parents = {query.view_parent};
    for (const ast::SignatureItem& sig : query.signature) {
      def.attributes.push_back(
          AttributeDef{sig.attr, sig.set_valued, sig.target_class, {}});
    }
    // Named select items missing from the signature get inferred targets.
    for (size_t i = 0; i < query.select.size() && i < row.size(); ++i) {
      if (!query.select[i].name.has_value()) continue;
      const std::string& attr = *query.select[i].name;
      bool in_sig = false;
      for (const auto& a : def.attributes) {
        if (a.name == attr) in_sig = true;
      }
      if (in_sig) continue;
      std::string target;
      const Oid& v = row[i];
      switch (v.kind()) {
        case OidKind::kInt: target = kIntClass; break;
        case OidKind::kReal: target = kRealClass; break;
        case OidKind::kString: target = kStringClass; break;
        case OidKind::kBool: target = kBoolClass; break;
        case OidKind::kCst: {
          LYRIC_ASSIGN_OR_RETURN(CstObject obj, db_->GetCst(v));
          target = CstClassName(obj.Dimension());
          break;
        }
        default: {
          Result<std::string> cls = db_->ClassOf(v);
          target = cls.ok() ? *cls : std::string(kStringClass);
          break;
        }
      }
      def.attributes.push_back(AttributeDef{attr, false, target, {}});
    }
    LYRIC_RETURN_NOT_OK(db_->AddClass(def));
    created_classes_.push_back(class_name);
  }
  // The instance oid: the OID FUNCTION result, or the single selected oid.
  Oid instance;
  if (!query.oid_function_of.empty()) {
    std::vector<Oid> args;
    for (const std::string& var : query.oid_function_of) {
      auto it = binding.vars.find(var);
      if (it == binding.vars.end()) {
        return Status::InvalidArgument("OID FUNCTION OF: variable '" + var +
                                       "' is unbound");
      }
      args.push_back(it->second);
    }
    instance = Oid::Func(class_name, std::move(args));
  } else if (row.size() == 1) {
    instance = row[0];
  } else {
    instance = Oid::Func(class_name, row);
  }
  if (db_->HasObject(instance)) {
    LYRIC_RETURN_NOT_OK(db_->AddInstanceOf(instance, class_name));
  } else if (instance.kind() == OidKind::kCst) {
    LYRIC_RETURN_NOT_OK(db_->AddInstanceOf(instance, class_name));
  } else {
    LYRIC_RETURN_NOT_OK(db_->Insert(instance, class_name));
    for (size_t i = 0; i < query.select.size() && i < row.size(); ++i) {
      if (!query.select[i].name.has_value()) continue;
      LYRIC_RETURN_NOT_OK(db_->SetAttribute(instance, *query.select[i].name,
                                            Value::Scalar(row[i])));
    }
  }
  return Status::OK();
}

Result<ResultSet> Evaluator::ExecuteImpl(const ast::Query& query,
                                         obs::QueryContext* context,
                                         AdmissionInfo* admission,
                                         ViewRows* view_rows) {
  LYRIC_OBS_COUNT("evaluator.queries");
  created_classes_.clear();
  view_rows->clear();

  // -- Admission control (docs/ROBUSTNESS.md) -----------------------------
  // A shed admission returns the typed kUnavailable error here — the
  // retry loop in Evaluate may retry it.
  exec::QueryScheduler& scheduler = options_.scheduler != nullptr
                                        ? *options_.scheduler
                                        : exec::QueryScheduler::Global();
  exec::AdmissionRequest request;
  request.deadline_ms = options_.deadline_ms;
  request.memory_budget = options_.memory_budget.value_or(0);
  Result<exec::AdmissionTicket> ticket = scheduler.Admit(request);
  if (!ticket.ok()) {
    admission->mode = "shed";
    return ticket.status();
  }
  admission->mode = ticket->queued() ? "queued" : "direct";
  admission->queue_wait_ns = ticket->queue_wait_ns();
  // Pre-flight: collect the full diagnostic set; any error aborts before
  // data is touched, warnings and §3 family notes ride on the ResultSet.
  std::vector<Diagnostic> preflight;
  if (options_.analyze_first) {
    obs::Span span("analyze");
    Analyzer analyzer(db_);
    AnalysisReport report = analyzer.Check(query);
    for (const Diagnostic& diag : report.diagnostics) {
      if (diag.severity == Severity::kError) {
        return Status(DiagCodeToStatusCode(diag.code), diag.message);
      }
    }
    preflight = std::move(report.diagnostics);
  }
  std::set<std::string> declared = CollectDeclaredVars(query, *db_);

  // Arm the resource governor when any limit is configured — after the
  // pre-flight, so limits govern data-dependent evaluation and cannot
  // trip inside the (bounded) static analysis. The token lives on this
  // frame; attached to the query's context, it is ambient for the kernels
  // on this thread until the frame returns.
  exec::GovernorLimits limits;
  limits.deadline_ms = options_.deadline_ms;
  limits.memory_budget = options_.memory_budget;
  limits.max_pivots = options_.max_pivots;
  limits.max_disjuncts = options_.max_disjuncts;
  std::optional<exec::CancellationToken> token;
  if (limits.Any()) token.emplace(limits);
  struct AttachedToken {
    obs::QueryContext* context;
    ~AttachedToken() { context->token = nullptr; }
  } attached{context};
  if (token.has_value()) context->token = &*token;

  // Column names.
  std::vector<std::string> columns;
  for (const ast::SelectItem& item : query.select) {
    if (item.name.has_value()) {
      columns.push_back(*item.name);
    } else if (item.kind == ast::SelectItem::Kind::kPath) {
      columns.push_back(item.path.ToString());
    } else if (item.kind == ast::SelectItem::Kind::kFormulaObject) {
      columns.push_back("cst");
    } else {
      columns.push_back("opt");
    }
  }
  ResultSet out(std::move(columns));
  out.set_diagnostics(std::move(preflight));

  std::vector<Binding> bindings;
  {
    obs::Span span("from");
    LYRIC_ASSIGN_OR_RETURN(bindings, EnumerateFrom(query));
  }
  LYRIC_OBS_COUNT_N("evaluator.bindings_enumerated", bindings.size());

  // A governor trip anywhere below ends the scan with the rows committed
  // so far; any other failure fails the query.
  auto fail = [&](const Status& st) -> Result<ResultSet> {
    if (token.has_value() && st.IsGovernorTrip()) {
      return GovernedPartial(std::move(out), *token);
    }
    return st;
  };
  for (const Binding& base : bindings) {
    // Governed scans check the token between bindings so queries whose
    // per-binding work never enters a kernel still cancel promptly.
    if (token.has_value()) {
      token->CheckDeadline("evaluator.scan");
      if (token->stopped()) return GovernedPartial(std::move(out), *token);
      token->AccountBinding();
    }
    std::vector<Binding> survivors{base};
    if (query.where) {
      obs::Span span("where");
      Result<std::vector<Binding>> r =
          EvalWhere(*query.where, base, declared, 0);
      if (!r.ok()) return fail(r.status());
      survivors = std::move(*r);
    }
    // Deduplicate extensions.
    std::sort(survivors.begin(), survivors.end());
    survivors.erase(std::unique(survivors.begin(), survivors.end()),
                    survivors.end());
    LYRIC_OBS_COUNT_N("evaluator.bindings_survived", survivors.size());
    LYRIC_OBS_COUNT_N("evaluator.bindings_filtered",
                      survivors.empty() ? 1 : 0);
    // Every survivor's SELECT rows are computed before any is committed,
    // so a failure inside this binding commits none of its rows.
    std::vector<std::vector<std::vector<Oid>>> rows(survivors.size());
    for (size_t i = 0; i < survivors.size(); ++i) {
      obs::Span span("select");
      Result<std::vector<std::vector<Oid>>> r =
          EvalSelect(query, survivors[i], declared);
      if (!r.ok()) return fail(r.status());
      rows[i] = std::move(*r);
    }
    for (size_t i = 0; i < survivors.size(); ++i) {
      for (std::vector<Oid>& row : rows[i]) {
        // Safety valve: stop at the limit instead of over-producing. The
        // rows already collected are a correct prefix of the answer.
        if (out.size() >= options_.max_rows) {
          LYRIC_OBS_COUNT("evaluator.rows_truncated");
          out.set_truncated(true);
          return out;
        }
        // A view's rows are kept for Install, which materializes them
        // after the scan; FROM enumerated its extents up front, so no
        // binding of this scan depends on them.
        if (query.is_view) view_rows->emplace_back(survivors[i], row);
        out.AddRow(std::move(row));
        LYRIC_OBS_COUNT("evaluator.rows_emitted");
      }
    }
  }
  return out;
}

}  // namespace lyric
