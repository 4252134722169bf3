//===- term/Lexer.cpp -----------------------------------------------------===//

#include "term/Lexer.h"

#include <array>
#include <cstring>

using namespace awam;

namespace {

/// What a byte can start or continue. One table lookup classifies a byte;
/// the table reproduces the C locale's <cctype> classes.
enum ByteClass : uint8_t {
  BLayout,  ///< space, \t, \v, \f, \r
  BNewline, ///< \n
  BLower,   ///< a-z
  BUpper,   ///< A-Z and '_'
  BDigit,   ///< 0-9
  BSymbol,  ///< + - * / \ ^ < > = ~ : . ? @ # & $
  BPunct,   ///< ( ) [ ] { } , |
  BSolo,    ///< ! and ;, each an atom on its own
  BQuote,   ///< '
  BPercent, ///< % (line comment)
  BOther,   ///< anything else, NUL included
};

constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> T{};
  T.fill(BOther);
  for (unsigned char C : {' ', '\t', '\v', '\f', '\r'})
    T[C] = BLayout;
  T['\n'] = BNewline;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = BLower;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = BUpper;
  T['_'] = BUpper;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = BDigit;
  for (unsigned char C : {'+', '-', '*', '/', '\\', '^', '<', '>', '=', '~',
                          ':', '.', '?', '@', '#', '&', '$'})
    T[C] = BSymbol;
  for (unsigned char C : {'(', ')', '[', ']', '{', '}', ',', '|'})
    T[C] = BPunct;
  T['!'] = BSolo;
  T[';'] = BSolo;
  T['\''] = BQuote;
  T['%'] = BPercent;
  return T;
}();

inline ByteClass classOf(char C) {
  return static_cast<ByteClass>(kByteClass[static_cast<unsigned char>(C)]);
}

/// Letters, digits and '_': the bytes of a name after its first.
inline bool isAlnumByte(char C) {
  ByteClass K = classOf(C);
  return K == BLower || K == BUpper || K == BDigit;
}

inline bool isSymbolByte(char C) { return classOf(C) == BSymbol; }

inline bool isDigitByte(char C) { return classOf(C) == BDigit; }

/// The character a backslash escape \p E stands for in quoted text.
char unescape(char E, bool InCharCode) {
  switch (E) {
  case 'n': return '\n';
  case 't': return '\t';
  case 'a': return InCharCode ? '\a' : E;
  case 'b': return InCharCode ? '\b' : E;
  case 'r': return InCharCode ? '\r' : E;
  default: return E;
  }
}

} // namespace

Lexer::Lexer(std::string_view Source) : Src(Source) {}

void Lexer::countNewlines(size_t From, size_t To) {
  const char *Base = Src.data();
  while (From < To) {
    const void *NL = std::memchr(Base + From, '\n', To - From);
    if (!NL)
      return;
    size_t At = static_cast<const char *>(NL) - Base;
    newlineAt(At);
    From = At + 1;
  }
}

template <typename Pred> std::string_view Lexer::takeRun(Pred InRun) {
  const char *Begin = Src.data() + Pos;
  const char *End = Src.data() + Src.size();
  const char *P = Begin;
  while (P != End && InRun(*P))
    ++P;
  Pos += static_cast<size_t>(P - Begin);
  return {Begin, static_cast<size_t>(P - Begin)};
}

std::string_view Lexer::own(std::string Text) {
  return Owned.emplace_back(std::move(Text));
}

void Lexer::errorHere(Token &T, std::string_view Message) {
  T.Kind = TokenKind::Error;
  T.Text = Message;
  T.Line = Line;
  T.Column = column();
  ++Pos;
}

bool Lexer::skipLayout() {
  const size_t N = Src.size();
  while (Pos != N) {
    switch (classOf(Src[Pos])) {
    case BNewline:
      newlineAt(Pos++);
      continue;
    case BLayout: {
      // The run of blanks, in a local so the loop stays in registers.
      size_t P = Pos + 1;
      while (P != N && classOf(Src[P]) == BLayout)
        ++P;
      Pos = P;
      continue;
    }
    case BPercent: {
      // Up to the newline, which the next round consumes; any byte,
      // NUL included, is comment text.
      const void *NL = std::memchr(Src.data() + Pos, '\n', N - Pos);
      Pos = NL ? static_cast<const char *>(NL) - Src.data() : N;
      continue;
    }
    case BSymbol:
      if (Src[Pos] == '/' && Pos + 1 != N && Src[Pos + 1] == '*') {
        size_t Close = Src.find("*/", Pos + 2);
        if (Close == std::string_view::npos)
          return false; // stay on the '/*' so the error points at it
        countNewlines(Pos + 2, Close);
        Pos = Close + 2;
        continue;
      }
      return true;
    default:
      return true;
    }
  }
  return true;
}

void Lexer::lex(Token &T) {
  bool AfterName = PrevWasName;
  PrevWasName = false;
  T.Text = {};
  T.IntVal = 0;

  // '(' with no layout before it and following an atom/var is a functor
  // application parenthesis.
  if (AfterName && !atEnd() && Src[Pos] == '(') {
    T.Kind = TokenKind::OpenCT;
    T.Text = "(";
    T.Line = Line;
    T.Column = column();
    ++Pos;
    return;
  }

  bool LayoutOk = skipLayout();
  T.Line = Line;
  T.Column = column();
  if (!LayoutOk) {
    T.Kind = TokenKind::Error;
    T.Text = "unterminated block comment";
    Pos = Src.size();
    return;
  }
  if (atEnd()) {
    T.Kind = TokenKind::EndOfFile;
    return;
  }

  const char C = Src[Pos];
  switch (classOf(C)) {
  case BPunct:
    T.Kind = TokenKind::Punct;
    T.Text = Src.substr(Pos++, 1);
    return;

  case BDigit: {
    // Character code 0'c (also 0'\n style escapes).
    if (C == '0' && Pos + 1 != Src.size() && Src[Pos + 1] == '\'')
      return lexCharCode(T);
    int64_t Value = 0;
    bool Overflow = false;
    for (char D : takeRun(isDigitByte))
      // Accumulate with overflow checks (signed overflow is UB); keep
      // consuming the remaining digits either way so the error token
      // covers the whole literal.
      Overflow |= __builtin_mul_overflow(Value, 10, &Value) ||
                  __builtin_add_overflow(Value, D - '0', &Value);
    if (Overflow) {
      T.Kind = TokenKind::Error;
      T.Text = "integer literal overflows 64 bits";
      return;
    }
    T.Kind = TokenKind::Int;
    T.IntVal = Value;
    PrevWasName = true; // "3(" is not a call, but harmless
    return;
  }

  case BLower:
    T.Kind = TokenKind::Atom;
    T.Text = takeRun(isAlnumByte);
    PrevWasName = true;
    return;

  case BUpper:
    T.Kind = TokenKind::Var;
    T.Text = takeRun(isAlnumByte);
    PrevWasName = true;
    return;

  case BQuote:
    return lexQuoted(T);

  case BSolo:
    T.Kind = TokenKind::Atom;
    T.Text = Src.substr(Pos++, 1);
    PrevWasName = true;
    return;

  case BSymbol:
    // End token: '.' followed by layout, a line comment or the end.
    if (C == '.') {
      size_t After = Pos + 1;
      ByteClass K = After == Src.size() ? BLayout : classOf(Src[After]);
      if (K == BLayout || K == BNewline || K == BPercent) {
        ++Pos;
        T.Kind = TokenKind::End;
        T.Text = ".";
        return;
      }
    }
    T.Kind = TokenKind::Atom;
    T.Text = takeRun(isSymbolByte);
    PrevWasName = true;
    return;

  default:
    break;
  }

  if (C == '\0')
    return errorHere(T, kNulByteMessage);
  errorHere(T, own(std::string("unexpected character '") + C + "'"));
}

void Lexer::lexCharCode(Token &T) {
  Pos += 2; // 0'
  if (atEnd() || (Src[Pos] == '\\' && Pos + 1 == Src.size())) {
    Pos = Src.size();
    T.Kind = TokenKind::Error;
    T.Text = "missing character after 0'";
    return;
  }
  bool Escape = Src[Pos] == '\\';
  Pos += Escape;
  char V = Src[Pos];
  if (V == '\0')
    return errorHere(T, kNulByteMessage);
  if (V == '\n')
    newlineAt(Pos);
  ++Pos;
  T.Kind = TokenKind::Int;
  T.IntVal = static_cast<unsigned char>(
      Escape ? unescape(V, /*InCharCode=*/true) : V);
}

void Lexer::lexQuoted(Token &T) {
  ++Pos; // opening quote
  // The atom is a slice of the source until the first escape; from there
  // on it is rebuilt in Name and owned by the lexer.
  const size_t Start = Pos;
  bool Escaped = false;
  std::string Name;
  auto startEscaped = [&] {
    if (!Escaped)
      Name.assign(Src.substr(Start, Pos - Start));
    Escaped = true;
  };
  for (;;) {
    if (atEnd()) {
      T.Kind = TokenKind::Error;
      T.Text = "unterminated quoted atom";
      return;
    }
    char V = Src[Pos];
    switch (V) {
    case '\'':
      if (Pos + 1 == Src.size() || Src[Pos + 1] != '\'') {
        std::string_view Plain = Src.substr(Start, Pos - Start);
        ++Pos; // closing quote
        T.Kind = TokenKind::Atom;
        T.Text = Escaped ? own(std::move(Name)) : Plain;
        PrevWasName = true;
        return;
      }
      startEscaped(); // escaped quote ''
      Name.push_back('\'');
      Pos += 2;
      continue;
    case '\\':
      startEscaped();
      if (++Pos == Src.size())
        continue; // unterminated
      V = Src[Pos];
      if (V == '\0')
        return errorHere(T, kNulByteMessage);
      if (V == '\n')
        newlineAt(Pos);
      Name.push_back(unescape(V, /*InCharCode=*/false));
      ++Pos;
      continue;
    case '\0':
      return errorHere(T, kNulByteMessage);
    case '\n':
      newlineAt(Pos);
      break;
    default:
      break;
    }
    if (Escaped)
      Name.push_back(V);
    ++Pos;
  }
}
