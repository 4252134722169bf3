//===- support/StringUtil.cpp ---------------------------------------------===//

#include "support/StringUtil.h"

#include <algorithm>
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
  std::string Out;
  appendAtom(Out, Name);
  return Out;
}

void awam::appendAtom(std::string &Out, std::string_view Name) {
  if (isUnquotedAtom(Name)) {
    Out.append(Name);
    return;
  }
  Out.push_back('\'');
  for (char C : Name) {
    if (C == '\'' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  Out.push_back('\'');
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

TextTable::TextTable(std::initializer_list<std::string_view> Headers)
    : Widths(Headers.size(), 0) {
  for (std::string_view H : Headers)
    addCell(H);
  endRow();
}

TextTable::TextTable(const std::vector<std::string> &Headers)
    : Widths(Headers.size(), 0) {
  for (const std::string &H : Headers)
    addCell(H);
  endRow();
}

void TextTable::endCell() {
  size_t Col = CellEnds.size() - (RowEnds.empty() ? 0 : RowEnds.back());
  if (Col < Widths.size())
    Widths[Col] =
        std::max(Widths[Col], Text.size() - cellBegin(CellEnds.size()));
  CellEnds.push_back(Text.size());
}

void TextTable::addRow(const std::vector<std::string> &Cells) {
  for (const std::string &C : Cells)
    addCell(C);
  endRow();
}

void TextTable::reserveRows(size_t Rows) {
  CellEnds.reserve(CellEnds.size() + Rows * Widths.size());
  RowEnds.reserve(RowEnds.size() + Rows);
}

std::string TextTable::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

size_t TextTable::renderedSize() const {
  // Every line, separators included, is "|" + (" " cell " |") per column
  // + "\n": one length for all, and the header row is followed by a
  // separator.
  size_t Line = 2;
  for (size_t W : Widths)
    Line += W + 3;
  return Line * (RowEnds.size() + 1);
}

void TextTable::appendTo(std::string &Out) const {
  Out.reserve(Out.size() + renderedSize());
  auto Separator = [&] {
    Out.push_back('|');
    for (size_t W : Widths) {
      Out.append(W + 2, '-');
      Out.push_back('|');
    }
    Out.push_back('\n');
  };
  size_t Cell = 0;
  for (size_t Row = 0; Row != RowEnds.size(); ++Row) {
    size_t End = RowEnds[Row];
    if (Cell == End && Row != 0) {
      Separator();
      continue;
    }
    Out.push_back('|');
    for (size_t Col = 0; Col != Widths.size(); ++Col) {
      std::string_view S;
      if (Cell != End) {
        S = std::string_view(Text).substr(cellBegin(Cell),
                                          CellEnds[Cell] - cellBegin(Cell));
        ++Cell;
      }
      Out.append(Widths[Col] - S.size() + 1, ' ');
      Out.append(S);
      Out.append(" |");
    }
    Cell = End; // cells past the last header are not printed
    Out.push_back('\n');
    if (Row == 0)
      Separator();
  }
}
