// lyric_check — batch linter for LyriC query files.
//
//   $ lyric_check [options] FILE_OR_DIR...
//
// Reads .lyric files (a directory argument is scanned recursively), splits
// each into queries on top-level ';', and runs the full static analysis:
// parse, schema/typing checks, and the §3 constraint-family pass. Exits
// non-zero when any file has an error-severity finding; warnings and notes
// are reported but do not fail the run.
//
// Options:
//   --format=text|json   output style (default text: carets under spans)
//   --db=PATH            lint against a serialized database's schema
//                        (default: the bundled Figure 1/2 office schema)
//   --codes              print the LY0xx code inventory and exit
//   --quiet              suppress notes (family tags); keep warnings/errors

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "config/config.h"
#include "exec/scheduler.h"
#include "office/office_db.h"
#include "query/analyzer.h"
#include "query/diagnostics.h"
#include "storage/serializer.h"

using namespace lyric;  // NOLINT - tool code.

namespace {

struct Options {
  bool json = false;
  bool quiet = false;
  std::string db_path;
  std::vector<std::string> inputs;
};

// Splits a file into queries on top-level ';' (string literals and
// "--" comments respected), recording each chunk's byte offset so that
// diagnostics can be shifted back into whole-file coordinates.
struct Chunk {
  std::string text;
  size_t offset = 0;
};

std::vector<Chunk> SplitQueries(const std::string& source) {
  std::vector<Chunk> chunks;
  size_t begin = 0;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    char c = source[i];
    if (c == '\'') {  // String literal; '' escapes a quote.
      ++i;
      while (i < n) {
        if (source[i] == '\'') {
          if (i + 1 < n && source[i + 1] == '\'') {
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (c == '-' && i + 1 < n && source[i + 1] == '-') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == ';') {
      chunks.push_back({source.substr(begin, i + 1 - begin), begin});
      ++i;
      begin = i;
      continue;
    }
    ++i;
  }
  if (begin < n) chunks.push_back({source.substr(begin), begin});
  // Drop chunks that hold no query (whitespace / comments only).
  std::vector<Chunk> out;
  for (Chunk& chunk : chunks) {
    size_t j = 0;
    bool blank = true;
    while (j < chunk.text.size()) {
      char c = chunk.text[j];
      if (c == '-' && j + 1 < chunk.text.size() &&
          chunk.text[j + 1] == '-') {
        while (j < chunk.text.size() && chunk.text[j] != '\n') ++j;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(c)) && c != ';') {
        blank = false;
        break;
      }
      ++j;
    }
    if (!blank) out.push_back(std::move(chunk));
  }
  return out;
}

// Lints one file; returns its diagnostics in whole-file coordinates.
std::vector<Diagnostic> LintFile(const Database& db,
                                 const std::string& source) {
  std::vector<Diagnostic> all;
  for (const Chunk& chunk : SplitQueries(source)) {
    CheckResult result = CheckQueryText(db, chunk.text);
    for (Diagnostic& diag : result.diagnostics) {
      diag.span.offset += chunk.offset;
      all.push_back(std::move(diag));
    }
  }
  return all;
}

void PrintCodes() {
  const DiagCode codes[] = {
      DiagCode::kLexError, DiagCode::kSyntaxError, DiagCode::kUnknownClass,
      DiagCode::kUnknownAttribute, DiagCode::kUseBeforeBind,
      DiagCode::kClassConflict, DiagCode::kNotNumeric,
      DiagCode::kNotCstPredicate, DiagCode::kArityMismatch,
      DiagCode::kUnboundOidVar, DiagCode::kUnknownViewParent,
      DiagCode::kUnknownSigTarget, DiagCode::kViewExists,
      DiagCode::kBadSelectFormula, DiagCode::kUnknownSymbolicOid,
      DiagCode::kAttributeVariable, DiagCode::kDuplicateFromVar,
      DiagCode::kDynamicCstAttribute, DiagCode::kFamilyInfo,
      DiagCode::kUnrestrictedProjection, DiagCode::kDisjunctiveEntailment,
      DiagCode::kDnfBlowup, DiagCode::kNonConjunctiveNegation,
      DiagCode::kDisjunctiveOptimize,
  };
  for (DiagCode code : codes) {
    std::cout << DiagCodeToString(code) << "  "
              << SeverityToString(DiagCodeDefaultSeverity(code)) << "  "
              << DiagCodeTitle(code) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Config::FromEnv();
  config.Apply();
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format=json") {
      opts.json = true;
    } else if (arg == "--format=text") {
      opts.json = false;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg.rfind("--db=", 0) == 0) {
      opts.db_path = arg.substr(5);
    } else if (arg == "--codes") {
      PrintCodes();
      return 0;
    } else if (arg == "--help") {
      std::cout << "usage: lyric_check [--format=text|json] [--db=PATH] "
                   "[--quiet] [--codes] FILE_OR_DIR...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << " (--help)\n";
      return 2;
    } else {
      opts.inputs.push_back(arg);
    }
  }
  if (opts.inputs.empty()) {
    std::cerr << "lyric_check: no inputs (--help)\n";
    return 2;
  }

  Database db;
  if (opts.db_path.empty()) {
    if (auto ids = office::BuildOfficeDatabase(&db); !ids.ok()) {
      std::cerr << "internal: office schema failed: " << ids.status()
                << "\n";
      return 2;
    }
  } else {
    // Batch runs retry transient (kUnavailable) load failures under the
    // env-configured policy; each attempt parses into a fresh scratch
    // database so a retry starts clean.
    auto st = exec::RunWithRetry(config.retry, [&] {
      Database scratch;
      Status attempt = Serializer::LoadFromFile(opts.db_path, &scratch);
      if (attempt.ok()) db = std::move(scratch);
      return attempt;
    });
    if (!st.ok()) {
      std::cerr << "could not load " << opts.db_path << ": " << st << "\n";
      return 2;
    }
  }

  // Expand directories into .lyric files, sorted for stable output.
  std::vector<std::string> files;
  for (const std::string& input : opts.inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(input, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".lyric") {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(input);
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "lyric_check: no .lyric files found\n";
    return 2;
  }

  size_t total_errors = 0;
  size_t total_warnings = 0;
  bool first_json = true;
  if (opts.json) std::cout << "[";
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "could not read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();

    // Per-file exception firewall: a malformed file that trips an
    // unexpected throw (including std::bad_alloc on a pathological input)
    // is reported as a failure for that file, and the run moves on to the
    // remaining inputs instead of crashing the whole batch.
    std::vector<Diagnostic> diags;
    try {
      diags = LintFile(db, source);
    } catch (const std::bad_alloc&) {
      std::cerr << file << ": out of memory while linting; skipped\n";
      ++total_errors;
      continue;
    } catch (const std::exception& e) {
      std::cerr << file << ": unexpected exception: " << e.what() << "\n";
      ++total_errors;
      continue;
    } catch (...) {
      std::cerr << file << ": unknown exception while linting\n";
      ++total_errors;
      continue;
    }
    if (opts.quiet) {
      std::erase_if(diags, [](const Diagnostic& d) {
        return d.severity == Severity::kNote;
      });
    }
    total_errors += CountSeverity(diags, Severity::kError);
    total_warnings += CountSeverity(diags, Severity::kWarning);
    if (opts.json) {
      // DiagnosticsToJson emits one array per file; splice its elements
      // into the combined array.
      std::string body = DiagnosticsToJson(source, diags, file);
      if (body.size() > 2) {  // Not "[]": strip the brackets and append.
        if (!first_json) std::cout << ",";
        std::cout << body.substr(1, body.size() - 2);
        first_json = false;
      }
    } else {
      std::cout << RenderDiagnostics(source, diags, file);
    }
  }
  if (opts.json) std::cout << "]\n";
  if (!opts.json) {
    std::cout << files.size() << " file" << (files.size() == 1 ? "" : "s")
              << " checked: " << total_errors << " error"
              << (total_errors == 1 ? "" : "s") << ", " << total_warnings
              << " warning" << (total_warnings == 1 ? "" : "s") << "\n";
  }
  return total_errors == 0 ? 0 : 1;
}
