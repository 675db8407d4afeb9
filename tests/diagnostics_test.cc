// Golden tests for the structured diagnostics layer: stable LY0xx codes,
// exact line:col spans, caret rendering, and the §3 constraint-family
// inference over the paper's §4.1 queries.

#include "query/diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "office/office_db.h"
#include "query/analyzer.h"
#include "query/evaluator.h"
#include "query/family_check.h"
#include "query/parser.h"

namespace lyric {
namespace {

class DiagnosticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
  }

  CheckResult Check(const std::string& text) {
    return CheckQueryText(db_, text);
  }

  // The diagnostics matching `code`, in emission order.
  static std::vector<Diagnostic> OfCode(const CheckResult& r,
                                        DiagCode code) {
    std::vector<Diagnostic> out;
    for (const Diagnostic& d : r.diagnostics) {
      if (d.code == code) out.push_back(d);
    }
    return out;
  }

  static size_t Errors(const CheckResult& r) {
    return CountSeverity(r.diagnostics, Severity::kError);
  }

  Database db_;
};

// --- primitive helpers ----------------------------------------------------

TEST(DiagCodeTest, RenderedCodesAreStable) {
  EXPECT_EQ(DiagCodeToString(DiagCode::kLexError), "LY001");
  EXPECT_EQ(DiagCodeToString(DiagCode::kSyntaxError), "LY002");
  EXPECT_EQ(DiagCodeToString(DiagCode::kUnknownAttribute), "LY011");
  EXPECT_EQ(DiagCodeToString(DiagCode::kArityMismatch), "LY016");
  EXPECT_EQ(DiagCodeToString(DiagCode::kFamilyInfo), "LY040");
  EXPECT_EQ(DiagCodeToString(DiagCode::kUnrestrictedProjection), "LY041");
  EXPECT_EQ(DiagCodeToString(DiagCode::kDisjunctiveOptimize), "LY045");
}

TEST(DiagCodeTest, DefaultSeverities) {
  EXPECT_EQ(DiagCodeDefaultSeverity(DiagCode::kUnknownClass),
            Severity::kError);
  EXPECT_EQ(DiagCodeDefaultSeverity(DiagCode::kUnknownSymbolicOid),
            Severity::kWarning);
  EXPECT_EQ(DiagCodeDefaultSeverity(DiagCode::kUnrestrictedProjection),
            Severity::kWarning);
  EXPECT_EQ(DiagCodeDefaultSeverity(DiagCode::kFamilyInfo),
            Severity::kNote);
  EXPECT_EQ(DiagCodeDefaultSeverity(DiagCode::kDisjunctiveOptimize),
            Severity::kNote);
}

TEST(LineColTest, OffsetsMapToOneBasedPositions) {
  const std::string text = "ab\ncd\nef";
  EXPECT_EQ(LineColAt(text, 0).line, 1u);
  EXPECT_EQ(LineColAt(text, 0).col, 1u);
  EXPECT_EQ(LineColAt(text, 1).col, 2u);
  EXPECT_EQ(LineColAt(text, 3).line, 2u);
  EXPECT_EQ(LineColAt(text, 3).col, 1u);
  EXPECT_EQ(LineColAt(text, 7).line, 3u);
  EXPECT_EQ(LineColAt(text, 7).col, 2u);
  // Past-the-end clamps.
  EXPECT_EQ(LineColAt(text, 99).line, 3u);
}

TEST(RenderTest, CaretSnippetUnderlinesSpan) {
  const std::string src = "SELECT X FROM Dekk X";
  Diagnostic d = MakeDiag(DiagCode::kUnknownClass, {14, 4},
                          "FROM: unknown class 'Dekk'");
  std::string rendered = RenderDiagnostic(src, d, "q.lyric");
  EXPECT_NE(rendered.find("q.lyric:1:15: error[LY010]"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("  SELECT X FROM Dekk X"), std::string::npos);
  EXPECT_NE(rendered.find("^~~~"), std::string::npos);
}

TEST(RenderTest, LongLineSnippetIsClippedAroundTheSpan) {
  // One line of 1,000,000 terms, the shape of long_chain_test's queries.
  std::string src = "SELECT ((x) | SAT(x <= 1";
  src.reserve(src.size() + 2 * 1000000 + 32);
  for (int i = 1; i < 1000000; ++i) src += "+1";
  src += ")) FROM Desk D";
  // A note whose span covers the back half of the chain (both sides cut),
  // and an error on a short span at the start of the line (right side
  // cut).
  const size_t middle = src.find("+1", src.size() / 2);
  const struct {
    Diagnostic diag;
    std::string snippet_head;
  } cases[] = {
      {MakeDiag(DiagCode::kFamilyInfo, {middle, src.size() - middle},
                "family: linear"),
       "  ..."},
      {MakeDiag(DiagCode::kUnknownClass, {7, 3}, "synthetic"), "  SELECT"},
  };
  for (const auto& c : cases) {
    const std::string rendered = RenderDiagnostic(src, c.diag, "chain.lyric");
    EXPECT_LT(rendered.size(), 300u) << rendered;
    // Header, snippet, caret line.
    const size_t first = rendered.find('\n');
    const size_t second = rendered.find('\n', first + 1);
    ASSERT_NE(second, std::string::npos) << rendered;
    const std::string snippet = rendered.substr(first + 1, second - first - 1);
    const std::string carets = rendered.substr(second + 1);
    EXPECT_EQ(snippet.substr(0, c.snippet_head.size()), c.snippet_head)
        << rendered;
    EXPECT_EQ(snippet.substr(snippet.size() - 3), "...") << rendered;
    // The caret still sits under the span's first characters.
    const size_t caret = carets.find('^');
    ASSERT_NE(caret, std::string::npos) << rendered;
    EXPECT_EQ(snippet.substr(caret, 8), src.substr(c.diag.span.offset, 8))
        << rendered;
  }
}

TEST(RenderTest, JsonCarriesPositionsAndCodes) {
  const std::string src = "SELECT X FROM Dekk X";
  std::vector<Diagnostic> diags = {MakeDiag(
      DiagCode::kUnknownClass, {14, 4}, "FROM: unknown class 'Dekk'")};
  std::string json = DiagnosticsToJson(src, diags, "q.lyric");
  EXPECT_NE(json.find("\"code\": \"LY010\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"col\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

// --- §4.1 paper queries: all error-clean ----------------------------------

TEST_F(DiagnosticsTest, Q1DrawerExtentClean) {
  CheckResult r = Check("SELECT Y FROM Desk X WHERE X.drawer.extent[Y]");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  EXPECT_EQ(r.var_classes.at("X"), "Desk");
  EXPECT_EQ(r.var_classes.at("Y"), "CST(2)");
}

TEST_F(DiagnosticsTest, Q2GlobalExtentFamiliesInferred) {
  // The acceptance query: every CST expression gets a family note and
  // there are zero errors.
  CheckResult r = Check(
      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
      "FROM Office_Object CO "
      "WHERE CO.extent[E] and CO.translation[D]");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  // One family note for the SELECT projection.
  std::vector<Diagnostic> notes = OfCode(r, DiagCode::kFamilyInfo);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].message.find("existential-conjunctive"),
            std::string::npos)
      << notes[0].message;
  // The projection eliminates w,z,x,y keeping u,v: unrestricted (§3.1).
  std::vector<Diagnostic> qe = OfCode(r, DiagCode::kUnrestrictedProjection);
  ASSERT_EQ(qe.size(), 1u);
  EXPECT_EQ(qe[0].severity, Severity::kWarning);
  EXPECT_NE(qe[0].message.find("eliminates 4 of 6"), std::string::npos)
      << qe[0].message;
  // Both notes anchor at the projection formula (offset 11, line 1).
  EXPECT_EQ(notes[0].span.offset, 11u);
  EXPECT_EQ(qe[0].span.offset, 11u);
}

TEST_F(DiagnosticsTest, Q4EntailmentFamiliesInferred) {
  CheckResult r = Check(
      "SELECT DSK, ((w, z) | DSK.drawer.extent(w, z) and z >= w) "
      "FROM Desk DSK "
      "WHERE DSK.color = 'red' and DSK.drawer_center[C] and "
      "C(p, q) |= p = -2");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  // Family notes: the SELECT projection, the entailment lhs and rhs.
  EXPECT_EQ(OfCode(r, DiagCode::kFamilyInfo).size(), 3u);
  // A conjunctive rhs: no disjunctive-entailment warning.
  EXPECT_TRUE(OfCode(r, DiagCode::kDisjunctiveEntailment).empty());
}

TEST_F(DiagnosticsTest, Q5RestrictedEntailmentClean) {
  CheckResult r = Check(
      "SELECT DSK FROM Object_in_Room O, Desk DSK "
      "WHERE O.catalog_object[DSK] and O.location[L] and "
      "DSK.translation[D] and DSK.drawer_center[DC] and "
      "DSK.drawer.extent[DE] and DSK.drawer.translation[DD] and "
      "((u, v) | D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and "
      "w = u1 and z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)) "
      "|= ((u, v) | 0 < u and u < 20 and 0 < v and v < 10)");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  EXPECT_TRUE(OfCode(r, DiagCode::kDisjunctiveEntailment).empty());
}

// --- broken variants: exact codes and positions ---------------------------

TEST_F(DiagnosticsTest, UnknownAttributePositioned) {
  //         1         2
  // 123456789012345678901234567890
  // SELECT X FROM Desk X WHERE X.location[L]
  CheckResult r = Check("SELECT X FROM Desk X WHERE X.location[L]");
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags = OfCode(r, DiagCode::kUnknownAttribute);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  LineCol pos = LineColAt("SELECT X FROM Desk X WHERE X.location[L]",
                          diags[0].span.offset);
  EXPECT_EQ(pos.line, 1u);
  EXPECT_EQ(pos.col, 30u);  // 'location' starts at column 30.
  EXPECT_EQ(diags[0].span.length, 8u);
}

TEST_F(DiagnosticsTest, UseBeforeBindPositioned) {
  const std::string q =
      "SELECT DSK FROM Desk DSK WHERE SAT(E(p, q)) and DSK.extent[E]";
  CheckResult r = Check(q);
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags = OfCode(r, DiagCode::kUseBeforeBind);
  ASSERT_EQ(diags.size(), 1u);
  LineCol pos = LineColAt(q, diags[0].span.offset);
  EXPECT_EQ(pos.col, 36u);  // The E inside SAT(...).
  EXPECT_NE(diags[0].message.find("'E'"), std::string::npos);
}

TEST_F(DiagnosticsTest, ArityMismatchPositioned) {
  const std::string q =
      "SELECT DSK FROM Desk DSK WHERE DSK.extent[E] and SAT(E(a, b, c))";
  CheckResult r = Check(q);
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags = OfCode(r, DiagCode::kArityMismatch);
  ASSERT_EQ(diags.size(), 1u);
  LineCol pos = LineColAt(q, diags[0].span.offset);
  EXPECT_EQ(pos.col, 54u);  // The E inside SAT(...).
  EXPECT_NE(diags[0].message.find("dimension 2"), std::string::npos);
  EXPECT_NE(diags[0].message.find("3 variables"), std::string::npos);
}

TEST_F(DiagnosticsTest, UnknownClassPositioned) {
  CheckResult r = Check("SELECT X FROM Dekk X");
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags = OfCode(r, DiagCode::kUnknownClass);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].span.offset, 14u);
  EXPECT_EQ(diags[0].span.length, 4u);
}

TEST_F(DiagnosticsTest, SyntaxErrorHasSpan) {
  CheckResult r = Check("SELECT X WHERE X.extent[E]");
  EXPECT_FALSE(r.parsed);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, DiagCode::kSyntaxError);
  EXPECT_EQ(r.diagnostics[0].span.offset, 9u);  // WHERE token.
  EXPECT_EQ(r.diagnostics[0].span.length, 5u);
}

TEST_F(DiagnosticsTest, LexErrorHasSpan) {
  CheckResult r = Check("SELECT X FROM Desk X WHERE X.color = 'red");
  EXPECT_FALSE(r.parsed);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, DiagCode::kLexError);
  EXPECT_EQ(r.diagnostics[0].span.offset, 37u);  // The opening quote.
}

TEST_F(DiagnosticsTest, MultipleErrorsCollected) {
  // Check() keeps going after the first broken clause: the unknown FROM
  // class and the unbound SELECT variable both surface.
  CheckResult r = Check("SELECT X FROM Dekk X");
  EXPECT_GE(Errors(r), 2u);
  EXPECT_EQ(OfCode(r, DiagCode::kUnknownClass).size(), 1u);
  EXPECT_EQ(OfCode(r, DiagCode::kUseBeforeBind).size(), 1u);
}

// --- out-of-fragment findings ---------------------------------------------

TEST_F(DiagnosticsTest, DisjunctiveEntailmentWarns) {
  CheckResult r = Check(
      "SELECT DSK FROM Desk DSK "
      "WHERE DSK.drawer_center[C] and "
      "C(p, q) |= (p <= 0 or p >= 1)");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  std::vector<Diagnostic> diags =
      OfCode(r, DiagCode::kDisjunctiveEntailment);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("disjunctive"), std::string::npos);
}

TEST_F(DiagnosticsTest, NotEqualAtomIsDisjunctive) {
  CheckResult r = Check(
      "SELECT DSK FROM Desk DSK "
      "WHERE DSK.drawer_center[C] and SAT(C(p, q) and p != 0)");
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> notes = OfCode(r, DiagCode::kFamilyInfo);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].message.find("disjunctive"), std::string::npos)
      << notes[0].message;
}

TEST_F(DiagnosticsTest, NonConjunctiveNegationWarns) {
  CheckResult r = Check(
      "SELECT DSK FROM Desk DSK "
      "WHERE DSK.drawer_center[C] and "
      "SAT(C(p, q) and not (p <= 0 or q <= 0))");
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags =
      OfCode(r, DiagCode::kNonConjunctiveNegation);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
}

TEST_F(DiagnosticsTest, DnfBlowupEstimated) {
  // Six two-way disjunctions conjoined: 64 estimated disjuncts.
  std::string q = "SELECT DSK FROM Desk DSK WHERE SAT(";
  for (int i = 0; i < 6; ++i) {
    if (i > 0) q += " and ";
    q += "(x" + std::to_string(i) + " <= 0 or x" + std::to_string(i) +
         " >= 1)";
  }
  q += ")";
  CheckResult r = Check(q);
  ASSERT_TRUE(r.parsed);
  std::vector<Diagnostic> diags = OfCode(r, DiagCode::kDnfBlowup);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("64"), std::string::npos)
      << diags[0].message;
}

TEST_F(DiagnosticsTest, DisjunctiveOptimizeNoted) {
  CheckResult r = Check(
      "SELECT MAX(p SUBJECT TO ((p) | p <= 4 or p <= 2)) "
      "FROM Desk DSK");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u) << RenderDiagnostics("", r.diagnostics);
  std::vector<Diagnostic> notes = OfCode(r, DiagCode::kDisjunctiveOptimize);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].message.find("per disjunct"), std::string::npos);
}

TEST_F(DiagnosticsTest, RestrictedProjectionStaysQuiet) {
  // ((w) | E and z >= 0) keeps one variable: restricted (§3.1), no LY041.
  CheckResult r = Check(
      "SELECT ((w) | E and z >= 0) FROM Desk DSK WHERE DSK.extent[E]");
  ASSERT_TRUE(r.parsed);
  EXPECT_EQ(Errors(r), 0u);
  EXPECT_TRUE(OfCode(r, DiagCode::kUnrestrictedProjection).empty())
      << RenderDiagnostics("", r.diagnostics);
}

// --- legacy Analyze() keeps its strict contract ---------------------------

TEST_F(DiagnosticsTest, AnalyzeMapsCodesToStatus) {
  Analyzer an(&db_);
  auto bad_class = ParseQuery("SELECT X FROM Dekk X");
  ASSERT_TRUE(bad_class.ok());
  EXPECT_TRUE(an.Analyze(*bad_class).status().IsNotFound());

  auto bad_attr = ParseQuery("SELECT X FROM Desk X WHERE X.location[L]");
  ASSERT_TRUE(bad_attr.ok());
  EXPECT_TRUE(an.Analyze(*bad_attr).status().IsTypeError());
}

// --- evaluator pre-flight -------------------------------------------------

TEST_F(DiagnosticsTest, PreflightAbortsOnErrors) {
  EvalOptions opts;
  opts.analyze_first = true;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute("SELECT X FROM Desk X WHERE X.location[L]");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

TEST_F(DiagnosticsTest, PreflightAttachesDiagnosticsToResult) {
  EvalOptions opts;
  opts.analyze_first = true;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute(
      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
      "FROM Office_Object CO "
      "WHERE CO.extent[E] and CO.translation[D]");
  ASSERT_TRUE(r.ok()) << r.status();
  // The unrestricted-projection warning and the family note ride along.
  EXPECT_FALSE(r->diagnostics().empty());
  EXPECT_FALSE(HasErrors(r->diagnostics()));
  bool has_family_note = std::any_of(
      r->diagnostics().begin(), r->diagnostics().end(),
      [](const Diagnostic& d) { return d.code == DiagCode::kFamilyInfo; });
  EXPECT_TRUE(has_family_note);
}

TEST_F(DiagnosticsTest, PreflightOffByDefault) {
  Evaluator ev(&db_);
  auto r = ev.Execute("SELECT Y FROM Desk X WHERE X.drawer.extent[Y]");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->diagnostics().empty());
}

}  // namespace
}  // namespace lyric
