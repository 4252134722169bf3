//===- support/SymbolTable.cpp --------------------------------------------===//

#include "support/SymbolTable.h"

#include <algorithm>
#include <cstring>

using namespace awam;

namespace {

constexpr size_t kFirstChunkBytes = 1024;
constexpr size_t kMaxChunkBytes = size_t(64) << 10;

inline uint64_t load64(const char *P) {
  uint64_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

inline uint64_t load32(const char *P) {
  uint32_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

inline uint64_t mixWord(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0xbf58476d1ce4e5b9ull;
  return H ^ (H >> 31);
}

/// A 64-bit hash of \p S, read a word at a time. The flat map finalizes
/// its keys again, so this only has to tell names apart, not spread them.
inline uint64_t hashName(std::string_view S) {
  const char *P = S.data();
  size_t N = S.size();
  uint64_t H = 0x9e3779b97f4a7c15ull ^ N;
  if (N >= 8) {
    for (; N > 8; P += 8, N -= 8)
      H = mixWord(H, load64(P));
    return mixWord(H, load64(P + N - 8)); // the last 8 bytes, overlapping
  }
  if (N >= 4)
    return mixWord(H, load32(P) | load32(P + N - 4) << 32);
  if (N != 0)
    return mixWord(H, uint64_t(uint8_t(P[0])) |
                          uint64_t(uint8_t(P[N / 2])) << 8 |
                          uint64_t(uint8_t(P[N - 1])) << 16);
  return H;
}

} // namespace

SymbolTable::SymbolTable() {
  // Keep in sync with the fixed-id enum in the header. The fixed names are
  // string literals, so they are not copied into the arena.
  static constexpr std::string_view Fixed[NumFixedSymbols] = {
      "[]", ".", ",", ":-", "true", "fail", "!", "{}", "-", "+"};
  Names.reserve(NumFixedSymbols);
  for (std::string_view Name : Fixed) {
    Index.insert(hashName(Name), static_cast<Symbol>(Names.size()));
    Names.push_back(Name);
  }
}

std::string_view SymbolTable::store(std::string_view Name) {
  if (Name.size() > ChunkLeft) {
    NextChunkBytes = std::min(
        NextChunkBytes ? NextChunkBytes * 2 : kFirstChunkBytes, kMaxChunkBytes);
    size_t Bytes = std::max(NextChunkBytes, Name.size());
    Chunks.push_back(std::make_unique_for_overwrite<char[]>(Bytes));
    ChunkCur = Chunks.back().get();
    ChunkLeft = Bytes;
  }
  char *Copy = ChunkCur;
  if (!Name.empty())
    std::memcpy(Copy, Name.data(), Name.size());
  ChunkCur += Name.size();
  ChunkLeft -= Name.size();
  return {Copy, Name.size()};
}

Symbol SymbolTable::intern(std::string_view Name) {
  uint64_t H = hashName(Name);
  Symbol Hit = Index.findIf(H, [&](uint32_t S) { return Names[S] == Name; });
  if (Hit != detail::FlatMap64::kEmpty)
    return Hit;
  Symbol S = static_cast<Symbol>(Names.size());
  Names.push_back(store(Name));
  Index.insert(H, S);
  return S;
}

Symbol SymbolTable::lookup(std::string_view Name) const {
  Symbol Hit = Index.findIf(hashName(Name),
                            [&](uint32_t S) { return Names[S] == Name; });
  return Hit == detail::FlatMap64::kEmpty ? ~0u : Hit;
}
