//===- term/Operators.cpp -------------------------------------------------===//

#include "term/Operators.h"

#include <cstdint>

using namespace awam;

namespace {
/// Every operator name has at most three characters, so a name packs
/// into one integer (length in the top byte) and each lookup is a single
/// switch, with no string comparison and no table search.
constexpr uint32_t pack(std::string_view Name) {
  uint32_t Key = static_cast<uint32_t>(Name.size());
  for (char C : Name)
    Key = Key << 8 | static_cast<unsigned char>(C);
  return Key;
}
} // namespace

std::optional<OpDef> awam::lookupInfixOp(std::string_view Name) {
  if (Name.empty() || Name.size() > 3)
    return std::nullopt;
  switch (pack(Name)) {
  case pack(":-"):
  case pack("-->"):
    return OpDef{1200, OpType::XFX};
  case pack(";"):
    return OpDef{1100, OpType::XFY};
  case pack("->"):
    return OpDef{1050, OpType::XFY};
  case pack(","):
    return OpDef{1000, OpType::XFY};
  case pack("="):
  case pack("\\="):
  case pack("=="):
  case pack("\\=="):
  case pack("@<"):
  case pack("@>"):
  case pack("@=<"):
  case pack("@>="):
  case pack("=.."):
  case pack("is"):
  case pack("=:="):
  case pack("=\\="):
  case pack("<"):
  case pack(">"):
  case pack("=<"):
  case pack(">="):
    return OpDef{700, OpType::XFX};
  case pack("+"):
  case pack("-"):
  case pack("/\\"):
  case pack("\\/"):
  case pack("xor"):
    return OpDef{500, OpType::YFX};
  case pack("*"):
  case pack("/"):
  case pack("//"):
  case pack("mod"):
  case pack("rem"):
  case pack("<<"):
  case pack(">>"):
    return OpDef{400, OpType::YFX};
  case pack("**"):
    return OpDef{200, OpType::XFX};
  case pack("^"):
    return OpDef{200, OpType::XFY};
  default:
    return std::nullopt;
  }
}

std::optional<OpDef> awam::lookupPrefixOp(std::string_view Name) {
  if (Name.empty() || Name.size() > 3)
    return std::nullopt;
  switch (pack(Name)) {
  case pack(":-"):
  case pack("?-"):
    return OpDef{1200, OpType::FX};
  case pack("\\+"):
    return OpDef{900, OpType::FY};
  case pack("-"):
  case pack("+"):
  case pack("\\"):
    return OpDef{200, OpType::FY};
  default:
    return std::nullopt;
  }
}
