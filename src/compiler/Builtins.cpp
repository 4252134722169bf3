//===- compiler/Builtins.cpp ----------------------------------------------===//

#include "compiler/Builtins.h"

#include <algorithm>
#include <array>

using namespace awam;

namespace {
struct BuiltinDesc {
  BuiltinId Id;
  std::string_view Name;
  int Arity;
};

constexpr std::array<BuiltinDesc, NumBuiltinIds> Descs = {{
    {BuiltinId::Is, "is", 2},
    {BuiltinId::ArithLt, "<", 2},
    {BuiltinId::ArithGt, ">", 2},
    {BuiltinId::ArithLe, "=<", 2},
    {BuiltinId::ArithGe, ">=", 2},
    {BuiltinId::ArithEq, "=:=", 2},
    {BuiltinId::ArithNe, "=\\=", 2},
    {BuiltinId::Unify, "=", 2},
    {BuiltinId::NotUnify, "\\=", 2},
    {BuiltinId::StructEq, "==", 2},
    {BuiltinId::StructNe, "\\==", 2},
    {BuiltinId::TermLt, "@<", 2},
    {BuiltinId::TermGt, "@>", 2},
    {BuiltinId::TermLe, "@=<", 2},
    {BuiltinId::TermGe, "@>=", 2},
    {BuiltinId::VarP, "var", 1},
    {BuiltinId::NonvarP, "nonvar", 1},
    {BuiltinId::AtomP, "atom", 1},
    {BuiltinId::IntegerP, "integer", 1},
    {BuiltinId::NumberP, "number", 1},
    {BuiltinId::AtomicP, "atomic", 1},
    {BuiltinId::CompoundP, "compound", 1},
    {BuiltinId::Functor, "functor", 3},
    {BuiltinId::Arg, "arg", 3},
    {BuiltinId::Univ, "=..", 2},
    {BuiltinId::Write, "write", 1},
    {BuiltinId::Nl, "nl", 0},
    {BuiltinId::Tab, "tab", 1},
    {BuiltinId::HaltB, "halt", 0},
}};

/// Every builtin name has at most eight bytes, so a name packs into one
/// integer and a lookup compares integers, not strings.
constexpr size_t kMaxBuiltinName = 8;

constexpr uint64_t pack(std::string_view Name) {
  uint64_t Key = 0;
  for (char C : Name)
    Key = Key << 8 | static_cast<unsigned char>(C);
  return Key;
}

/// pack() of each builtin's name, in id order.
constexpr std::array<uint64_t, NumBuiltinIds> Keys = [] {
  std::array<uint64_t, NumBuiltinIds> K{};
  for (size_t I = 0; I != Descs.size(); ++I)
    K[I] = pack(Descs[I].Name);
  return K;
}();

static_assert(std::all_of(Descs.begin(), Descs.end(), [](const auto &D) {
  return D.Name.size() <= kMaxBuiltinName;
}));

} // namespace

std::optional<BuiltinId> awam::lookupBuiltin(std::string_view Name,
                                             int Arity) {
  if (Name.size() > kMaxBuiltinName)
    return std::nullopt;
  // Equal keys and lengths mean equal names: pack() loses only leading
  // NUL bytes.
  const uint64_t Key = pack(Name);
  for (size_t I = 0; I != Keys.size(); ++I)
    if (Keys[I] == Key && Descs[I].Name.size() == Name.size() &&
        Descs[I].Arity == Arity)
      return Descs[I].Id;
  return std::nullopt;
}

std::string_view awam::builtinName(BuiltinId Id) {
  return Descs[static_cast<size_t>(Id)].Name;
}

int awam::builtinArity(BuiltinId Id) {
  return Descs[static_cast<size_t>(Id)].Arity;
}
