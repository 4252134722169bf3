//===- support/StringUtil.cpp ---------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace awam;

std::string awam::padLeft(std::string_view S, size_t Width) {
  std::string Out;
  if (S.size() < Width)
    Out.append(Width - S.size(), ' ');
  Out.append(S);
  return Out;
}

std::string awam::padRight(std::string_view S, size_t Width) {
  std::string Out(S);
  if (Out.size() < Width)
    Out.append(Width - Out.size(), ' ');
  return Out;
}

std::string awam::formatDouble(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return Buf;
}

static bool isSymbolChar(char C) {
  static constexpr std::string_view SymbolChars = "+-*/\\^<>=~:.?@#&$";
  return SymbolChars.find(C) != std::string_view::npos;
}

bool awam::isUnquotedAtom(std::string_view Name) {
  if (Name.empty())
    return false;
  if (Name == "[]" || Name == "{}" || Name == "!" || Name == ";")
    return true;
  if (std::islower(static_cast<unsigned char>(Name[0]))) {
    for (char C : Name)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
        return false;
    return true;
  }
  for (char C : Name)
    if (!isSymbolChar(C))
      return false;
  return true;
}

std::string awam::quoteAtom(std::string_view Name) {
  if (isUnquotedAtom(Name))
    return std::string(Name);
  std::string Out = "'";
  for (char C : Name) {
    if (C == '\'' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  Out.push_back('\'');
  return Out;
}

bool awam::parseIntArg(const char *Text, int Min, int &Out) {
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min ||
      V > std::numeric_limits<int>::max())
    return false;
  Out = static_cast<int>(V);
  return true;
}

TextTable::TextTable(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TextTable::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

void TextTable::addSeparator() { Rows.push_back({}); }

std::string TextTable::str() const {
  std::vector<size_t> Widths(Headers.size());
  for (size_t I = 0; I != Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  auto renderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line = "|";
    for (size_t I = 0; I != Headers.size(); ++I) {
      std::string_view Cell = I < Cells.size() ? Cells[I] : std::string_view();
      Line += " " + padLeft(Cell, Widths[I]) + " |";
    }
    return Line + "\n";
  };
  auto renderSep = [&]() {
    std::string Line = "|";
    for (size_t W : Widths)
      Line += std::string(W + 2, '-') + "|";
    return Line + "\n";
  };

  std::string Out = renderRow(Headers);
  Out += renderSep();
  for (const auto &Row : Rows)
    Out += Row.empty() ? renderSep() : renderRow(Row);
  return Out;
}
