#include "constraint/linear_expr.h"

#include <algorithm>
#include <cassert>

namespace lyric {

namespace {

bool VarLess(const std::pair<VarId, Rational>& term, VarId var) {
  return term.first < var;
}

// Appends a + b to `out`, where `b_coeff` maps each of b's coefficients
// (e.g. negates or scales it), dropping terms that cancel. Both inputs
// are sorted by variable id, and so is the result.
template <typename CoeffFn>
void MergeTerms(const LinearExpr::Terms& a, const LinearExpr::Terms& b,
                CoeffFn b_coeff, LinearExpr::Terms* out) {
  out->reserve(a.size() + b.size());
  auto it = a.begin();
  auto jt = b.begin();
  while (it != a.end() && jt != b.end()) {
    if (it->first < jt->first) {
      out->push_back(*it++);
    } else if (jt->first < it->first) {
      out->emplace_back(jt->first, b_coeff(jt->second));
      ++jt;
    } else {
      Rational sum = it->second + b_coeff(jt->second);
      if (!sum.IsZero()) out->emplace_back(it->first, std::move(sum));
      ++it;
      ++jt;
    }
  }
  out->insert(out->end(), it, a.end());
  for (; jt != b.end(); ++jt) out->emplace_back(jt->first, b_coeff(jt->second));
}

}  // namespace

LinearExpr LinearExpr::Term(Rational coeff, VarId var) {
  LinearExpr out;
  out.AddTerm(var, coeff);
  return out;
}

const Rational& LinearExpr::Coeff(VarId var) const {
  static const Rational kZero;
  auto it = std::lower_bound(terms_.begin(), terms_.end(), var, VarLess);
  return it == terms_.end() || it->first != var ? kZero : it->second;
}

void LinearExpr::AddTerm(VarId var, const Rational& coeff) {
  if (coeff.IsZero()) return;
  if (terms_.empty() || terms_.back().first < var) {
    terms_.emplace_back(var, coeff);
    return;
  }
  auto it = std::lower_bound(terms_.begin(), terms_.end(), var, VarLess);
  if (it == terms_.end() || it->first != var) {
    terms_.emplace(it, var, coeff);
    return;
  }
  it->second += coeff;
  if (it->second.IsZero()) terms_.erase(it);
}

LinearExpr LinearExpr::operator+(const LinearExpr& o) const {
  LinearExpr out(constant_ + o.constant_);
  MergeTerms(terms_, o.terms_, [](const Rational& c) { return c; },
             &out.terms_);
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& o) const {
  LinearExpr out(constant_ - o.constant_);
  MergeTerms(terms_, o.terms_, [](const Rational& c) { return -c; },
             &out.terms_);
  return out;
}

LinearExpr LinearExpr::operator-() const {
  LinearExpr out(-constant_);
  out.terms_.reserve(terms_.size());
  for (const auto& [var, coeff] : terms_) out.terms_.emplace_back(var, -coeff);
  return out;
}

LinearExpr LinearExpr::Scale(const Rational& k) const {
  LinearExpr out;
  if (k.IsZero()) return out;
  out.constant_ = constant_ * k;
  out.terms_.reserve(terms_.size());
  for (const auto& [var, coeff] : terms_) {
    out.terms_.emplace_back(var, coeff * k);
  }
  return out;
}

int LinearExpr::Compare(const LinearExpr& o) const {
  auto it = terms_.begin();
  auto jt = o.terms_.begin();
  while (it != terms_.end() && jt != o.terms_.end()) {
    if (it->first != jt->first) return it->first < jt->first ? -1 : 1;
    int c = it->second.Compare(jt->second);
    if (c != 0) return c;
    ++it;
    ++jt;
  }
  if (it != terms_.end()) return 1;
  if (jt != o.terms_.end()) return -1;
  return constant_.Compare(o.constant_);
}

VarSet LinearExpr::FreeVars() const {
  VarSet out;
  CollectVars(&out);
  return out;
}

void LinearExpr::CollectVars(VarSet* out) const {
  for (const auto& [var, coeff] : terms_) {
    (void)coeff;
    out->insert(var);
  }
}

LinearExpr LinearExpr::Substitute(VarId var,
                                  const LinearExpr& replacement) const {
  assert(replacement.Coeff(var).IsZero() &&
         "substitution replacement mentions the substituted variable");
  auto it = std::lower_bound(terms_.begin(), terms_.end(), var, VarLess);
  if (it == terms_.end() || it->first != var) return *this;
  const Rational& coeff = it->second;
  Terms rest;
  rest.reserve(terms_.size() - 1);
  rest.insert(rest.end(), terms_.begin(), it);
  rest.insert(rest.end(), it + 1, terms_.end());
  LinearExpr out(constant_ + replacement.constant_ * coeff);
  MergeTerms(rest, replacement.terms_,
             [&](const Rational& c) { return c * coeff; }, &out.terms_);
  return out;
}

LinearExpr LinearExpr::Rename(const std::map<VarId, VarId>& renaming) const {
  LinearExpr out(constant_);
  out.terms_.reserve(terms_.size());
  bool sorted = true;
  for (const auto& [var, coeff] : terms_) {
    auto it = renaming.find(var);
    VarId to = it == renaming.end() ? var : it->second;
    if (!out.terms_.empty() && out.terms_.back().first >= to) sorted = false;
    out.terms_.emplace_back(to, coeff);
  }
  if (sorted) return out;
  // The renaming reordered or merged terms: sort by the new ids, then sum
  // the coefficients of each id, dropping those that cancel.
  std::sort(out.terms_.begin(), out.terms_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Terms merged;
  merged.reserve(out.terms_.size());
  for (auto& [var, coeff] : out.terms_) {
    if (!merged.empty() && merged.back().first == var) {
      merged.back().second += coeff;
      if (merged.back().second.IsZero()) merged.pop_back();
    } else {
      merged.emplace_back(var, std::move(coeff));
    }
  }
  out.terms_ = std::move(merged);
  return out;
}

Result<Rational> LinearExpr::Eval(const Assignment& assignment) const {
  Rational out = constant_;
  for (const auto& [var, coeff] : terms_) {
    auto it = assignment.find(var);
    if (it == assignment.end()) {
      return Status::InvalidArgument("unassigned variable '" +
                                     Variable::Name(var) + "' in Eval");
    }
    out += coeff * it->second;
  }
  return out;
}

std::string LinearExpr::ToString() const {
  if (terms_.empty()) return constant_.ToString();
  std::string out;
  bool first = true;
  for (const auto& [var, coeff] : terms_) {
    if (first) {
      if (coeff == Rational(1)) {
        out += Variable::Name(var);
      } else if (coeff == Rational(-1)) {
        out += "-" + Variable::Name(var);
      } else {
        out += coeff.ToString() + "*" + Variable::Name(var);
      }
      first = false;
      continue;
    }
    if (coeff.IsNegative()) {
      Rational abs = coeff.Abs();
      out += " - ";
      if (abs != Rational(1)) out += abs.ToString() + "*";
    } else {
      out += " + ";
      if (coeff != Rational(1)) out += coeff.ToString() + "*";
    }
    out += Variable::Name(var);
  }
  if (!constant_.IsZero()) {
    if (constant_.IsNegative()) {
      out += " - " + constant_.Abs().ToString();
    } else {
      out += " + " + constant_.ToString();
    }
  }
  return out;
}

size_t LinearExpr::Hash() const {
  size_t h = constant_.Hash();
  for (const auto& [var, coeff] : terms_) {
    h ^= (static_cast<size_t>(var) + 0x9e3779b97f4a7c15ull) + (h << 6) +
         (h >> 2);
    h ^= coeff.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace lyric
