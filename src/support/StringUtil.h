//===- support/StringUtil.h - Small string helpers --------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting helpers shared by the disassembler, the analysis
/// report printer and the benchmark table writers, and the integer-argument
/// parser of the command-line tools. The report path appends to a caller's
/// buffer (appendAtom, appendInt, TextTable's cell buffer) so a report is
/// written without a temporary string per cell or token.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_STRINGUTIL_H
#define AWAM_SUPPORT_STRINGUTIL_H

#include <charconv>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace awam {

/// Left-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padLeft(std::string_view S, size_t Width);

/// Right-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padRight(std::string_view S, size_t Width);

/// Formats \p Value with \p Decimals digits after the point.
std::string formatDouble(double Value, int Decimals);

/// True if \p Name lexes as an unquoted Prolog atom (lower-case alpha start,
/// alphanumeric/underscore rest, or a symbolic-char atom, or one of the
/// solo atoms "[]", "{}", "!", ";").
bool isUnquotedAtom(std::string_view Name);

/// Quotes \p Name as a Prolog atom ('...' with escapes) when necessary.
std::string quoteAtom(std::string_view Name);

/// Appends quoteAtom(\p Name) to \p Out without a temporary.
void appendAtom(std::string &Out, std::string_view Name);

/// Appends the decimal text of \p V (std::to_string's) to \p Out without
/// a temporary.
template <typename Int> void appendInt(std::string &Out, Int V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Parses \p Text as a decimal integer in [\p Min, INT_MAX] into \p Out;
/// false on trailing garbage, empty input, out-of-range values, or anything
/// below Min (std::atoi would silently yield 0 — and UB — on all of those).
bool parseIntArg(const char *Text, int Min, int &Out);

/// A text table with right-aligned cells, each column as wide as its
/// widest cell or header: the analysis report's pattern and mode tables and
/// the benchmark harness's rows in the shape of the paper's tables.
///
/// All cell text lives in one buffer with an end offset per cell, so a cell
/// is built by appending to text() in as many pieces as it takes and closed
/// with endCell(); str() and appendTo() write each row once into an output
/// reserved to its final size.
class TextTable {
public:
  /// Creates a table; each column header also fixes a minimum width.
  TextTable(std::initializer_list<std::string_view> Headers);
  explicit TextTable(const std::vector<std::string> &Headers);

  /// The buffer the current cell's text is appended to.
  std::string &text() { return Text; }

  /// Closes the current cell at the end of text().
  void endCell();

  /// Appends \p S as one whole cell.
  void addCell(std::string_view S) {
    Text.append(S);
    endCell();
  }

  /// Closes the current row. Cells it lacks at the end print empty; a row
  /// of no cells prints as a separator.
  void endRow() { RowEnds.push_back(CellEnds.size()); }

  /// Appends a row of whole cells. A row has at most as many cells as
  /// there are headers; any past the last header are not printed.
  void addRow(const std::vector<std::string> &Cells);

  /// Appends a horizontal separator row.
  void addSeparator() { endRow(); }

  /// Reserves room for \p Rows more rows of full width.
  void reserveRows(size_t Rows);

  /// Renders the table with column alignment.
  std::string str() const;

  /// Appends the rendered table to \p Out.
  void appendTo(std::string &Out) const;

  /// Bytes appendTo() appends, so a caller that appends more after the
  /// table can reserve the whole output once.
  size_t renderedSize() const;

private:
  /// Start offset of cell \p I in Text.
  size_t cellBegin(size_t I) const { return I ? CellEnds[I - 1] : 0; }

  std::string Text;
  /// End offset in Text of each cell, row after row.
  std::vector<size_t> CellEnds;
  /// Index into CellEnds one past each row's last cell; row 0 holds the
  /// headers.
  std::vector<size_t> RowEnds;
  std::vector<size_t> Widths;
};

} // namespace awam

#endif // AWAM_SUPPORT_STRINGUTIL_H
