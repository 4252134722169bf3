//===- support/StringUtil.h - Small string helpers --------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting helpers shared by the disassembler, the report printer
/// and the benchmark table writers, and the integer-argument parser of the
/// command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_STRINGUTIL_H
#define AWAM_SUPPORT_STRINGUTIL_H

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

/// Parses \p Text as a decimal integer in [\p Min, INT_MAX] into \p Out;
/// false on trailing garbage, empty input, out-of-range values, or anything
/// below Min (std::atoi would silently yield 0 — and UB — on all of those).
bool parseIntArg(const char *Text, int Min, int &Out);

/// A fixed-layout text table used by the benchmark harness to print rows in
/// the same shape as the paper's tables.
class TextTable {
public:
  /// Creates a table; each column header also fixes a minimum width.
  explicit TextTable(std::vector<std::string> Headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator row.
  void addSeparator();

  /// Renders the table with column alignment.
  std::string str() const;

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows; // empty row == separator
};

} // namespace awam

#endif // AWAM_SUPPORT_STRINGUTIL_H
