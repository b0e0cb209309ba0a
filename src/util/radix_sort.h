#ifndef GORDER_UTIL_RADIX_SORT_H_
#define GORDER_UTIL_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gorder::util {

/// Widest radix-sort digit: a pass's 2^12 counters (32 KB) fit in L1.
inline constexpr int kMaxRadixDigitBits = 12;

/// LSD radix sort of `count` elements by `key(element)`, an unsigned key
/// of at most `key_bits` (<= 64) significant bits. Elements move between
/// `data` and `scratch` (each `count` long); returns whichever holds the
/// result. The key is cut into equal digits of at most
/// kMaxRadixDigitBits, so short keys take few passes; one read of the
/// input fills every pass's histogram, and a digit every element shares
/// takes no pass. Stable: elements with equal keys keep their order.
/// `counts` receives the histograms: a caller sorting many short arrays
/// passes the same vector each time, so they are allocated once.
template <typename T, typename Key>
T* RadixSort(T* data, T* scratch, std::size_t count, int key_bits,
             const Key& key, std::vector<std::size_t>& counts) {
  if (count == 0 || key_bits == 0) return data;
  const int passes = (key_bits + kMaxRadixDigitBits - 1) / kMaxRadixDigitBits;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  const std::uint64_t mask = radix - 1;
  auto digit = [&key, mask](const T& e, int shift) {
    return (static_cast<std::uint64_t>(key(e)) >> shift) & mask;
  };
  counts.assign(static_cast<std::size_t>(passes) * radix, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t k = key(data[i]);
    for (int p = 0; p < passes; ++p) {
      ++counts[p * radix + ((k >> (p * digit_bits)) & mask)];
    }
  }
  T* from = data;
  T* to = scratch;
  for (int p = 0; p < passes; ++p) {
    std::size_t* next = counts.data() + p * radix;
    const int shift = p * digit_bits;
    if (next[digit(from[0], shift)] == count) continue;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < radix; ++d) {
      const std::size_t c = next[d];
      next[d] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const T e = from[i];
      to[next[digit(e, shift)]++] = e;
    }
    std::swap(from, to);
  }
  return from;
}

}  // namespace gorder::util

#endif  // GORDER_UTIL_RADIX_SORT_H_
