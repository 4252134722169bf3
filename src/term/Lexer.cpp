//===- term/Lexer.cpp -----------------------------------------------------===//

#include "term/Lexer.h"

#include <cctype>

using namespace awam;

static bool isSymbolChar(char C) {
  switch (C) {
  case '+': case '-': case '*': case '/': case '\\': case '^':
  case '<': case '>': case '=': case '~': case ':': case '.':
  case '?': case '@': case '#': case '&': case '$':
    return true;
  default:
    return false;
  }
}

static bool isAlnumChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// The character a backslash escape \p E stands for in quoted text.
static char unescape(char E, bool InCharCode) {
  switch (E) {
  case 'n': return '\n';
  case 't': return '\t';
  case 'a': return InCharCode ? '\a' : E;
  case 'b': return InCharCode ? '\b' : E;
  case 'r': return InCharCode ? '\r' : E;
  default: return E;
  }
}

Lexer::Lexer(std::string_view Source) : Src(Source) {}

void Lexer::advance() {
  if (Pos >= Src.size())
    return;
  if (Src[Pos] == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  ++Pos;
}

template <typename Pred> std::string_view Lexer::takeRun(Pred InRun) {
  size_t Start = Pos;
  while (Pos < Src.size() && InRun(Src[Pos]))
    ++Pos;
  Column += static_cast<int>(Pos - Start);
  return Src.substr(Start, Pos - Start);
}

std::string_view Lexer::own(std::string Text) {
  return Owned.emplace_back(std::move(Text));
}

bool Lexer::skipLayout() {
  for (;;) {
    char C = cur();
    if (C == '\0')
      return true;
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '%') {
      while (cur() != '\0' && cur() != '\n')
        advance();
      continue;
    }
    if (C == '/' && lookahead() == '*') {
      size_t Close = Src.find("*/", Pos + 2);
      if (Close == std::string_view::npos)
        return false; // stay on the '/*' so the error points at it
      while (Pos != Close + 2)
        advance();
      continue;
    }
    return true;
  }
}

const Token &Lexer::peek() {
  if (!HasPeeked) {
    Peeked = lex();
    HasPeeked = true;
  }
  return Peeked;
}

Token Lexer::next() {
  if (HasPeeked) {
    HasPeeked = false;
    return Peeked;
  }
  return lex();
}

Token Lexer::lex() {
  bool AfterName = PrevWasName;
  PrevWasName = false;

  // '(' with no layout before it and following an atom/var is a functor
  // application parenthesis.
  if (cur() == '(' && AfterName) {
    Token T{TokenKind::OpenCT, "(", 0, Line, Column};
    advance();
    return T;
  }

  bool LayoutOk = skipLayout();
  Token T;
  T.Line = Line;
  T.Column = Column;
  if (!LayoutOk) {
    T.Kind = TokenKind::Error;
    T.Text = "unterminated block comment";
    Pos = Src.size();
    return T;
  }
  char C = cur();

  if (C == '\0') {
    T.Kind = TokenKind::EndOfFile;
    return T;
  }

  // End token: '.' followed by layout or EOF.
  if (C == '.') {
    char N = lookahead();
    if (N == '\0' || std::isspace(static_cast<unsigned char>(N)) ||
        N == '%') {
      advance();
      T.Kind = TokenKind::End;
      T.Text = ".";
      return T;
    }
  }

  switch (C) {
  case '(': case ')': case '[': case ']': case '{': case '}': case ',':
  case '|':
    T.Kind = TokenKind::Punct;
    T.Text = Src.substr(Pos, 1);
    advance();
    return T;
  default:
    break;
  }

  // Character code 0'c (also 0'\\n style escapes).
  if (C == '0' && lookahead() == '\'') {
    advance(); // 0
    advance(); // '
    char V = cur();
    if (V == '\\') {
      advance();
      V = cur() == '\0' ? '\0' : unescape(cur(), /*InCharCode=*/true);
    }
    if (cur() == '\0') {
      T.Kind = TokenKind::Error;
      T.Text = "missing character after 0'";
      return T;
    }
    advance();
    T.Kind = TokenKind::Int;
    T.IntVal = static_cast<unsigned char>(V);
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    int64_t Value = 0;
    bool Overflow = false;
    for (char D : takeRun([](char X) {
           return std::isdigit(static_cast<unsigned char>(X)) != 0;
         }))
      // Accumulate with overflow checks (signed overflow is UB); keep
      // consuming the remaining digits either way so the error token
      // covers the whole literal.
      Overflow |= __builtin_mul_overflow(Value, 10, &Value) ||
                  __builtin_add_overflow(Value, D - '0', &Value);
    if (Overflow) {
      T.Kind = TokenKind::Error;
      T.Text = "integer literal overflows 64 bits";
      return T;
    }
    T.Kind = TokenKind::Int;
    T.IntVal = Value;
    PrevWasName = true; // "3(" is not a call, but harmless
    return T;
  }

  if (std::islower(static_cast<unsigned char>(C))) {
    T.Kind = TokenKind::Atom;
    T.Text = takeRun(isAlnumChar);
    PrevWasName = true;
    return T;
  }

  if (std::isupper(static_cast<unsigned char>(C)) || C == '_') {
    T.Kind = TokenKind::Var;
    T.Text = takeRun(isAlnumChar);
    PrevWasName = true;
    return T;
  }

  if (C == '\'') {
    advance();
    // The atom is a slice of the source until the first escape; from
    // there on it is rebuilt in Name and owned by the lexer.
    size_t Start = Pos;
    bool Escaped = false;
    std::string Name;
    auto startEscaped = [&] {
      if (!Escaped)
        Name.assign(Src.substr(Start, Pos - Start));
      Escaped = true;
    };
    for (;;) {
      char V = cur();
      if (V == '\0') {
        T.Kind = TokenKind::Error;
        T.Text = "unterminated quoted atom";
        return T;
      }
      if (V == '\'') {
        if (lookahead() != '\'')
          break;
        startEscaped(); // escaped quote ''
        Name.push_back('\'');
        advance();
        advance();
        continue;
      }
      if (V == '\\') {
        startEscaped();
        advance();
        Name.push_back(unescape(cur(), /*InCharCode=*/false));
        advance();
        continue;
      }
      if (Escaped)
        Name.push_back(V);
      advance();
    }
    std::string_view Plain = Src.substr(Start, Pos - Start);
    advance(); // closing quote
    T.Kind = TokenKind::Atom;
    T.Text = Escaped ? own(std::move(Name)) : Plain;
    PrevWasName = true;
    return T;
  }

  if (C == '!' || C == ';') {
    T.Kind = TokenKind::Atom;
    T.Text = Src.substr(Pos, 1);
    advance();
    PrevWasName = true;
    return T;
  }

  if (isSymbolChar(C)) {
    T.Kind = TokenKind::Atom;
    T.Text = takeRun(isSymbolChar);
    PrevWasName = true;
    return T;
  }

  T.Kind = TokenKind::Error;
  T.Text = own(std::string("unexpected character '") + C + "'");
  advance();
  return T;
}
