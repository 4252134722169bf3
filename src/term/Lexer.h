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

/// Incremental tokenizer over an in-memory buffer. Malformed input
/// (including an unterminated block comment or quoted atom, and a 0'
/// character code cut off by the end of input) yields an Error token.
class Lexer {
public:
  explicit Lexer(std::string_view Source);

  /// Scans and returns the next token.
  Token next();

  /// Returns the next token without consuming it.
  const Token &peek();

private:
  Token lex();
  /// Skips whitespace and comments; false on an unterminated block
  /// comment, with the position left on its '/*'.
  bool skipLayout();
  char cur() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  char lookahead(size_t N = 1) const {
    return Pos + N < Src.size() ? Src[Pos + N] : '\0';
  }
  void advance();
  /// Consumes the run of characters from the current position for which
  /// \p InRun holds (none of them a newline) and returns it as a view.
  template <typename Pred> std::string_view takeRun(Pred InRun);
  /// Stores \p Text for the Lexer's lifetime and returns a view of it.
  std::string_view own(std::string Text);

  std::string_view Src;
  size_t Pos = 0;
  int Line = 1;
  int Column = 1;
  bool HasPeeked = false;
  Token Peeked;
  bool PrevWasName = false; // for OpenCT detection
  /// Texts that are not slices of Src; a deque never moves its strings.
  std::deque<std::string> Owned;
};

} // namespace awam

#endif // AWAM_TERM_LEXER_H
