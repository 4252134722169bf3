//===- term/Lexer.h - Prolog tokenizer --------------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the subset of ISO Prolog syntax used by the benchmark
/// suite: unquoted/quoted/symbolic atoms, variables, integers, punctuation,
/// lists, curly braces, end tokens, %-comments and /* */ comments, and
/// 0'c character codes.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_LEXER_H
#define AWAM_TERM_LEXER_H

#include "support/Error.h"

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace awam {

/// Token categories produced by the Lexer.
enum class TokenKind : uint8_t {
  Atom,       ///< unquoted, quoted or symbolic atom; text in Token::Text
  Var,        ///< variable name (starts upper-case or '_')
  Int,        ///< integer literal; value in Token::IntVal
  Punct,      ///< one of ( ) [ ] { } , |
  End,        ///< clause-terminating '.'
  OpenCT,     ///< '(' immediately following an atom (functor application)
  EndOfFile,  ///< input exhausted
  Error,      ///< lexical error; message in Token::Text
};

/// A single token with its source position.
///
/// Text is a view: into the source buffer for names and punctuation, or
/// into storage the Lexer owns for quoted atoms with escapes and for
/// error messages. Either way it stays valid while both the source and
/// the Lexer that produced the token are alive.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  std::string_view Text; // atom/var name, punct char, or error message
  int64_t IntVal = 0;    // integer value
  int Line = 1;
  int Column = 1;
};

/// The text of the Error token for a NUL byte outside a comment.
inline constexpr std::string_view kNulByteMessage = "unexpected NUL byte";

/// Incremental tokenizer over an in-memory buffer. Malformed input
/// (including an unterminated block comment or quoted atom, a 0'
/// character code cut off by the end of input, and a NUL byte outside a
/// comment) yields an Error token. The input ends at the end of the
/// buffer and nowhere else.
class Lexer {
public:
  explicit Lexer(std::string_view Source);

  /// Scans and returns the next token.
  Token next() {
    if (!HasPeeked)
      lex(Peeked);
    HasPeeked = false;
    return Peeked;
  }

  /// Returns the next token without consuming it.
  const Token &peek() {
    if (!HasPeeked) {
      lex(Peeked);
      HasPeeked = true;
    }
    return Peeked;
  }

private:
  /// Scans the next token into \p T.
  void lex(Token &T);
  void lexCharCode(Token &T);
  void lexQuoted(Token &T);
  /// Skips whitespace and comments; false on an unterminated block
  /// comment, with the position left on its '/*'.
  bool skipLayout();
  bool atEnd() const { return Pos == Src.size(); }
  /// 1-based column of the current position.
  int column() const { return static_cast<int>(Pos - LineStart) + 1; }
  /// Records the newline at \p At.
  void newlineAt(size_t At) {
    ++Line;
    LineStart = At + 1;
  }
  /// Records every newline in [\p From, \p To).
  void countNewlines(size_t From, size_t To);
  /// Makes \p T an Error token at the current position, consuming one
  /// byte.
  void errorHere(Token &T, std::string_view Message);
  /// Consumes the run of bytes from the current position for which
  /// \p InRun holds (none of them a newline) and returns it as a view.
  template <typename Pred> std::string_view takeRun(Pred InRun);
  /// Stores \p Text for the Lexer's lifetime and returns a view of it.
  std::string_view own(std::string Text);

  std::string_view Src;
  size_t Pos = 0;
  /// Line of the current position, and the offset its line starts at;
  /// both change only at newlines.
  int Line = 1;
  size_t LineStart = 0;
  bool HasPeeked = false;
  Token Peeked;
  bool PrevWasName = false; // for OpenCT detection
  /// Texts that are not slices of Src; a deque never moves its strings.
  std::deque<std::string> Owned;
};

} // namespace awam

#endif // AWAM_TERM_LEXER_H
