// Parse-equivalence golden: every query text the repository ships, plus
// deterministic mutations of each, must parse to the recorded verdict and
// (when accepted) the recorded AST.
//
// Inputs: the queries of examples/queries/, tests/lint/bad_queries.lyric
// and tests/fuzz/corpus_parser/, split on top-level ';' the way
// lyric_check splits files, and kMutations mutations of each made with
// the splitmix64 byte flips, truncations, duplications and garbage
// appends of tests/fuzz/standalone_main.cc. Each text goes through
// ParseQuery (verdict: the AST, or the diagnostic code) and ParseFormula
// (the formula, or the status code). Error messages and error offsets are
// not recorded.
//
// On a mismatch the test writes what it computed to
// parse_golden.actual.txt in its working directory; after an intended
// grammar change, review the diff and copy that file over
// tests/golden/parse_golden.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "query/diagnostics.h"
#include "query/parser.h"

namespace lyric {
namespace {

constexpr size_t kMutations = 100;

std::string At(size_t offset) { return "@" + std::to_string(offset); }

std::string PrintPath(const ast::PathExpr& p) {
  std::string out = p.ToString() + At(p.offset) + "[" +
                    std::to_string(p.head.offset);
  for (const ast::PathExpr::Step& s : p.steps) {
    out += " " + std::to_string(s.offset);
    if (s.selector.has_value()) out += ":" + std::to_string(s.selector->offset);
  }
  return out + "]";
}

// Preorder node offsets of a formula: every formula node, the top of each
// atom side and each predicate path.
void FormulaOffsets(const ast::Formula& f, std::string* out) {
  *out += " " + std::to_string(f.offset);
  if (f.kind == ast::Formula::Kind::kAtom) {
    *out += "<" + std::to_string(f.atom_lhs->offset) + "," +
            std::to_string(f.atom_rhs->offset) + ">";
  }
  if (f.pred) *out += "<" + PrintPath(*f.pred) + ">";
  for (const auto& child : f.children) FormulaOffsets(*child, out);
}

std::string PrintFormula(const ast::Formula& f) {
  std::string offsets;
  FormulaOffsets(f, &offsets);
  return "{" + f.ToString() + " |" + offsets + "}";
}

std::string PrintOperand(const ast::WhereExpr::Operand& o) {
  return o.kind == ast::WhereExpr::Operand::Kind::kPath
             ? PrintPath(o.path)
             : "lit:" + o.literal.ToString();
}

std::string PrintWhere(const ast::WhereExpr& w) {
  using Kind = ast::WhereExpr::Kind;
  std::string out;
  switch (w.kind) {
    case Kind::kAnd: out = "and"; break;
    case Kind::kOr: out = "or"; break;
    case Kind::kNot: out = "not"; break;
    case Kind::kPathPred: out = "path " + PrintPath(w.path); break;
    case Kind::kCompare:
      out = "cmp " + PrintOperand(w.cmp_lhs) + " " + w.cmp_op + " " +
            PrintOperand(w.cmp_rhs);
      break;
    case Kind::kFormulaSat: out = "sat " + PrintFormula(*w.formula); break;
    case Kind::kEntails:
      out = "entails " + PrintFormula(*w.ent_lhs) + " " +
            PrintFormula(*w.ent_rhs);
      break;
  }
  out += At(w.offset);
  if (!w.children.empty()) {
    out += "(";
    for (size_t i = 0; i < w.children.size(); ++i) {
      if (i > 0) out += ", ";
      out += PrintWhere(*w.children[i]);
    }
    out += ")";
  }
  return out;
}

std::string PrintQuery(const ast::Query& q) {
  std::string out;
  if (q.is_view) {
    out += "view " + q.view_name + At(q.view_name_offset) + " of " +
           q.view_parent + At(q.view_parent_offset) + "; ";
  }
  for (const ast::SignatureItem& s : q.signature) {
    out += "sig " + s.attr + (s.set_valued ? " =>> " : " => ") +
           s.target_class + At(s.target_offset) + "; ";
  }
  for (const ast::SelectItem& item : q.select) {
    out += "select" + At(item.offset);
    if (item.name.has_value()) out += " " + *item.name + " =";
    switch (item.kind) {
      case ast::SelectItem::Kind::kPath:
        out += " " + PrintPath(item.path);
        break;
      case ast::SelectItem::Kind::kFormulaObject:
        out += " " + PrintFormula(*item.formula);
        break;
      case ast::SelectItem::Kind::kOptimize:
        out += " opt" + std::to_string(static_cast<int>(item.opt)) + " " +
               item.objective->ToString() + At(item.objective->offset) +
               " " + PrintFormula(*item.formula);
        break;
    }
    out += "; ";
  }
  for (const ast::FromItem& f : q.from) {
    out += "from " + f.class_name + At(f.class_offset) + " " + f.var +
           At(f.var_offset) + "; ";
  }
  for (size_t i = 0; i < q.oid_function_of.size(); ++i) {
    out += "oidfn " + q.oid_function_of[i] +
           At(q.oid_function_of_offsets[i]) + "; ";
  }
  if (q.where) out += "where " + PrintWhere(*q.where);
  return out;
}

// Escapes bytes outside printable ASCII so each entry stays on one line.
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f || c == '\\') {
      char buf[5];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Verdicts(const std::string& text) {
  Diagnostic diag;
  Result<ast::Query> query = ParseQuery(text, &diag);
  Result<ast::Formula> formula = ParseFormula(text);
  return "query: " +
         Escape(query.ok() ? "OK " + PrintQuery(*query)
                           : DiagCodeToString(diag.code)) +
         "\tformula: " +
         Escape(formula.ok() ? "OK " + PrintFormula(*formula)
                             : StatusCodeToString(formula.status().code()));
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Mutation `i` of `input`, as tests/fuzz/standalone_main.cc makes it.
std::string Mutate(const std::string& input, uint64_t seed, size_t i) {
  std::string mutated = input;
  uint64_t r = SplitMix64(seed + i);
  switch (r % 4) {
    case 0:  // Flip a byte.
      if (!mutated.empty()) {
        mutated[SplitMix64(r) % mutated.size()] =
            static_cast<char>(SplitMix64(r + 1) & 0xff);
      }
      break;
    case 1:  // Truncate.
      mutated.resize(mutated.empty() ? 0 : SplitMix64(r) % mutated.size());
      break;
    case 2:  // Duplicate a slice into the middle.
      if (!mutated.empty()) {
        size_t at = SplitMix64(r) % mutated.size();
        size_t len = SplitMix64(r + 1) % 32;
        mutated.insert(at, mutated.substr(0, len));
      }
      break;
    default:  // Append garbage.
      for (int k = 0; k < 8; ++k) {
        mutated.push_back(static_cast<char>(SplitMix64(r + k) & 0xff));
      }
      break;
  }
  return mutated;
}

// Splits on top-level ';' (string literals and "--" comments respected),
// keeping each ';' with its query and dropping blank chunks.
std::vector<std::string> SplitQueries(const std::string& source) {
  std::vector<std::string> chunks;
  size_t begin = 0;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    if (source[i] == '\'') {
      for (++i; i < n; ++i) {
        if (source[i] != '\'') continue;
        if (i + 1 < n && source[i + 1] == '\'') {
          ++i;
          continue;
        }
        ++i;
        break;
      }
      continue;
    }
    if (source[i] == '-' && i + 1 < n && source[i + 1] == '-') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (source[i] == ';') {
      chunks.push_back(source.substr(begin, i + 1 - begin));
      begin = i + 1;
    }
    ++i;
  }
  if (begin < n) chunks.push_back(source.substr(begin));
  std::vector<std::string> out;
  for (std::string& chunk : chunks) {
    std::string code;
    for (size_t j = 0; j < chunk.size(); ++j) {
      if (chunk[j] == '-' && j + 1 < chunk.size() && chunk[j + 1] == '-') {
        while (j < chunk.size() && chunk[j] != '\n') ++j;
        continue;
      }
      code.push_back(chunk[j]);
    }
    bool blank = std::all_of(code.begin(), code.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) || c == ';';
    });
    if (!blank) out.push_back(std::move(chunk));
  }
  return out;
}

struct Input {
  std::string name;
  std::string text;
};

std::vector<Input> Inputs() {
  const std::filesystem::path root = LYRIC_SOURCE_DIR;
  std::vector<std::filesystem::path> files = {root / "tests" / "lint" /
                                              "bad_queries.lyric"};
  for (const char* dir : {"examples/queries", "tests/fuzz/corpus_parser"}) {
    std::vector<std::filesystem::path> listed;
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.is_regular_file()) listed.push_back(entry.path());
    }
    std::sort(listed.begin(), listed.end());
    files.insert(files.end(), listed.begin(), listed.end());
  }
  std::vector<Input> out;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<std::string> queries = SplitQueries(buf.str());
    const std::string rel =
        std::filesystem::relative(file, root).generic_string();
    for (size_t q = 0; q < queries.size(); ++q) {
      out.push_back({rel + "#" + std::to_string(q), queries[q]});
    }
  }
  return out;
}

TEST(ParseGoldenTest, VerdictsMatchTheRecordedGolden) {
  std::vector<Input> inputs = Inputs();
  ASSERT_GE(inputs.size(), 16u);
  std::vector<std::string> names;
  std::vector<std::string> texts;
  for (size_t k = 0; k < inputs.size(); ++k) {
    names.push_back(inputs[k].name);
    texts.push_back(inputs[k].text);
    for (size_t i = 0; i < kMutations; ++i) {
      names.push_back(inputs[k].name + "~" + std::to_string(i));
      texts.push_back(Mutate(inputs[k].text, 0x5eed0000u + k, i));
    }
  }
  std::vector<std::string> actual;
  for (size_t i = 0; i < texts.size(); ++i) {
    actual.push_back(names[i] + "\t" + Verdicts(texts[i]));
  }

  std::ifstream golden_in(std::string(LYRIC_SOURCE_DIR) +
                          "/tests/golden/parse_golden.txt");
  std::vector<std::string> golden;
  for (std::string line; std::getline(golden_in, line);) {
    golden.push_back(line);
  }
  if (golden == actual) return;

  std::ofstream dump("parse_golden.actual.txt", std::ios::binary);
  for (const std::string& line : actual) dump << line << "\n";
  ADD_FAILURE() << "parse golden mismatch (" << golden.size()
                << " recorded entries, " << actual.size()
                << " computed); computed entries written to "
                << std::filesystem::absolute("parse_golden.actual.txt");
  size_t shown = 0;
  for (size_t i = 0; i < actual.size() && shown < 5; ++i) {
    if (i < golden.size() && golden[i] == actual[i]) continue;
    ++shown;
    ADD_FAILURE() << "input " << names[i] << ": " << Escape(texts[i])
                  << "\n  recorded: "
                  << (i < golden.size() ? golden[i] : "<none>")
                  << "\n  computed: " << actual[i];
  }
}

}  // namespace
}  // namespace lyric
