// Lexer for the LyriC text syntax.

#ifndef LYRIC_QUERY_LEXER_H_
#define LYRIC_QUERY_LEXER_H_

#include <cstddef>
#include <vector>

#include "query/token.h"
#include "util/result.h"

namespace lyric {

/// Tokenizes `text`; the result always ends with a kEnd token. Comments
/// run from "--" to end of line. Each '(' records the index of its
/// matching ')' (Token::partner).
Result<std::vector<Token>> Lex(const std::string& text);

/// Like Lex, but on failure also reports the byte offset of the offending
/// character through `error_offset` (when non-null), for diagnostics with
/// source spans.
Result<std::vector<Token>> Lex(const std::string& text,
                               size_t* error_offset);

}  // namespace lyric

#endif  // LYRIC_QUERY_LEXER_H_
