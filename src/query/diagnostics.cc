#include "query/diagnostics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace lyric {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

std::string DiagCodeToString(DiagCode code) {
  int n = static_cast<int>(code);
  std::string digits = std::to_string(n);
  while (digits.size() < 3) digits.insert(digits.begin(), '0');
  return "LY" + digits;
}

Severity DiagCodeDefaultSeverity(DiagCode code) {
  if (code == DiagCode::kFamilyInfo) return Severity::kNote;
  if (code == DiagCode::kDisjunctiveOptimize) return Severity::kNote;
  int n = static_cast<int>(code);
  if (n >= 30) return Severity::kWarning;
  return Severity::kError;
}

const char* DiagCodeTitle(DiagCode code) {
  switch (code) {
    case DiagCode::kLexError:
      return "query text failed to tokenize";
    case DiagCode::kSyntaxError:
      return "query text failed to parse";
    case DiagCode::kUnknownClass:
      return "FROM clause names a class the schema does not define";
    case DiagCode::kUnknownAttribute:
      return "attribute missing on the statically known class";
    case DiagCode::kUseBeforeBind:
      return "variable used before FROM or an earlier conjunct binds it";
    case DiagCode::kClassConflict:
      return "one variable bound at two incompatible classes";
    case DiagCode::kNotNumeric:
      return "non-numeric value used in pseudo-linear arithmetic";
    case DiagCode::kNotCstPredicate:
      return "predicate use of a value that is not a CST object";
    case DiagCode::kArityMismatch:
      return "CST predicate invoked with the wrong number of variables";
    case DiagCode::kUnboundOidVar:
      return "OID FUNCTION OF variable is never bound";
    case DiagCode::kUnknownViewParent:
      return "SUBCLASS OF names a class the schema does not define";
    case DiagCode::kUnknownSigTarget:
      return "SIGNATURE target names a class the schema does not define";
    case DiagCode::kViewExists:
      return "view name collides with an existing class";
    case DiagCode::kBadSelectFormula:
      return "SELECT constraint item is not a projection formula";
    case DiagCode::kUnknownSymbolicOid:
      return "symbolic oid names no stored object";
    case DiagCode::kAttributeVariable:
      return "higher-order attribute variable enumerates at run time";
    case DiagCode::kDuplicateFromVar:
      return "FROM variable declared twice (instances must agree)";
    case DiagCode::kDynamicCstAttribute:
      return "attribute on a CST value cannot be checked statically";
    case DiagCode::kFamilyInfo:
      return "inferred §3 constraint family of a CST expression";
    case DiagCode::kUnrestrictedProjection:
      return "quantifier elimination outside the §3.1 restricted fragment";
    case DiagCode::kDisjunctiveEntailment:
      return "entailment with a disjunctive operand";
    case DiagCode::kDnfBlowup:
      return "DNF distribution estimate exceeds the blowup threshold";
    case DiagCode::kNonConjunctiveNegation:
      return "negation of a non-conjunctive formula";
    case DiagCode::kDisjunctiveOptimize:
      return "optimization over a disjunctive body (one LP per disjunct)";
  }
  return "unknown diagnostic";
}

std::string Diagnostic::ToString() const {
  return std::string(SeverityToString(severity)) + "[" +
         DiagCodeToString(code) + "]: " + message;
}

Diagnostic MakeDiag(DiagCode code, SourceSpan span, std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = DiagCodeDefaultSeverity(code);
  d.message = std::move(message);
  d.span = span;
  return d;
}

LineCol LineColAt(const std::string& text, size_t offset) {
  LineCol out;
  offset = std::min(offset, text.size());
  for (size_t i = 0; i < offset; ++i) {
    if (text[i] == '\n') {
      ++out.line;
      out.col = 1;
    } else {
      ++out.col;
    }
  }
  return out;
}

namespace {

// The full source line containing `offset` (no trailing newline).
std::string LineContaining(const std::string& text, size_t offset,
                           size_t* line_start) {
  offset = std::min(offset, text.size());
  size_t start = text.rfind('\n', offset == 0 ? 0 : offset - 1);
  start = (start == std::string::npos || offset == 0) ? 0 : start + 1;
  if (offset > 0 && start > offset) start = offset;
  size_t end = text.find('\n', offset);
  if (end == std::string::npos) end = text.size();
  *line_start = start;
  return text.substr(start, end - start);
}

void AppendJsonString(std::ostringstream* os, const std::string& s) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '"': *os << "\\\""; break;
      case '\\': *os << "\\\\"; break;
      case '\n': *os << "\\n"; break;
      case '\t': *os << "\\t"; break;
      case '\r': *os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
  *os << '"';
}

}  // namespace

std::string RenderDiagnostic(const std::string& source,
                             const Diagnostic& diag,
                             const std::string& filename) {
  // A long line is clipped to a window around the span: kContext columns
  // before and after it, and at most kSpanShown columns of the span, with
  // "..." where a side is cut. Lines up to kMaxLine columns print whole.
  constexpr size_t kMaxLine = 120;
  constexpr size_t kContext = 32;
  constexpr size_t kSpanShown = 48;
  constexpr char kElided[] = "...";
  LineCol pos = LineColAt(source, diag.span.offset);
  std::ostringstream os;
  if (!filename.empty()) os << filename << ":";
  os << pos.line << ":" << pos.col << ": " << diag.ToString() << "\n";
  size_t line_start = 0;
  std::string line = LineContaining(source, diag.span.offset, &line_start);
  if (!line.empty()) {
    size_t col = diag.span.offset >= line_start
                     ? diag.span.offset - line_start
                     : 0;
    col = std::min(col, line.size());
    const size_t span_len = std::max<size_t>(diag.span.length, 1);
    size_t begin = 0;
    size_t end = line.size();
    if (line.size() > kMaxLine) {
      begin = col > kContext ? col - kContext : 0;
      end = std::min(line.size(),
                     col + std::min(span_len, kSpanShown) + kContext);
    }
    const char* lead = begin > 0 ? kElided : "";
    os << "  " << lead << line.substr(begin, end - begin)
       << (end < line.size() ? kElided : "") << "\n  " << lead;
    for (size_t i = begin; i < col; ++i) {
      os << (line[i] == '\t' ? '\t' : ' ');
    }
    os << '^';
    size_t tail = std::min(span_len - 1, end - col);
    for (size_t i = 0; i < tail; ++i) os << '~';
    os << "\n";
  }
  return os.str();
}

std::string RenderDiagnostics(const std::string& source,
                              const std::vector<Diagnostic>& diags,
                              const std::string& filename) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += RenderDiagnostic(source, d, filename);
  }
  return out;
}

std::string DiagnosticsToJson(const std::string& source,
                              const std::vector<Diagnostic>& diags,
                              const std::string& filename) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Diagnostic& d : diags) {
    if (!first) os << ",";
    first = false;
    LineCol pos = LineColAt(source, d.span.offset);
    os << "\n  {\"file\": ";
    AppendJsonString(&os, filename);
    os << ", \"line\": " << pos.line << ", \"col\": " << pos.col
       << ", \"offset\": " << d.span.offset
       << ", \"length\": " << d.span.length << ", \"code\": \""
       << DiagCodeToString(d.code) << "\", \"severity\": \""
       << SeverityToString(d.severity) << "\", \"message\": ";
    AppendJsonString(&os, d.message);
    os << "}";
  }
  os << (first ? "]" : "\n]");
  return os.str();
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  return CountSeverity(diags, Severity::kError) > 0;
}

size_t CountSeverity(const std::vector<Diagnostic>& diags,
                     Severity severity) {
  return static_cast<size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

}  // namespace lyric
