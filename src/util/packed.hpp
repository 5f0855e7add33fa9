// Packed boolean states: one bit per signal, 64 signals per 64-bit word.
//
// Signal s is bit s % 64 of word s / 64, and the bits past the last signal
// are zero, so two packed states of one circuit are equal exactly when
// their words are.  The exact settling kernel (sim/explicit), the fault
// simulator's candidate sets (atpg/fault_sim), the differentiation search's
// visited set (atpg/engine) and the explicit CSSG index (sgraph/cssg) all
// key on these words, and the BDD minterm enumerator writes its rows in
// this layout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace xatpg {

using StateWord = std::uint64_t;

/// Words per packed state of `num_signals` signals (at least one, so a row
/// stride is never zero).
inline std::size_t state_words(std::size_t num_signals) {
  return std::max<std::size_t>(1, (num_signals + 63) / 64);
}

inline bool test_bit(const StateWord* words, std::size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1) != 0;
}
inline void set_bit(StateWord* words, std::size_t i) {
  words[i / 64] |= StateWord{1} << (i % 64);
}
inline void flip_bit(StateWord* words, std::size_t i) {
  words[i / 64] ^= StateWord{1} << (i % 64);
}

inline std::vector<StateWord> pack_state(const std::vector<bool>& state) {
  std::vector<StateWord> words(state_words(state.size()), 0);
  for (std::size_t i = 0; i < state.size(); ++i)
    if (state[i]) set_bit(words.data(), i);
  return words;
}

inline std::vector<bool> unpack_state(const StateWord* words,
                                      std::size_t num_signals) {
  std::vector<bool> state(num_signals);
  for (std::size_t i = 0; i < num_signals; ++i) state[i] = test_bit(words, i);
  return state;
}

/// splitmix64's finalizer over every word: all output bits depend on all
/// input bits, so masking the low bits is a fair table index.
inline std::uint64_t hash_words(const StateWord* words, std::size_t count) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

struct StateWordsHash {
  std::size_t operator()(const std::vector<StateWord>& words) const {
    return static_cast<std::size_t>(hash_words(words.data(), words.size()));
  }
};

/// Ids for the distinct packed rows of one width, in the order they were
/// added: one arena holds row id at words [id * width, (id + 1) * width),
/// and a flat open-addressing table indexes it (id + 1, 0 = empty, a power
/// of two at most half full).  A probe hashes and compares the caller's
/// words in place, so only a new row is copied.
class PackedRowIndex {
 public:
  explicit PackedRowIndex(std::size_t width = 1) : width_(width), slots_(16) {}

  std::size_t width() const { return width_; }
  /// Rows added so far.
  std::size_t size() const { return rows_.size() / width_; }
  const StateWord* row(std::uint32_t id) const {
    return rows_.data() + static_cast<std::size_t>(id) * width_;
  }

  /// Id of `row`, or nullopt if it was never added.
  std::optional<std::uint32_t> find(const StateWord* row) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash_words(row, width_) & mask; slots_[s] != 0;
         s = (s + 1) & mask)
      if (std::equal(row, row + width_, this->row(slots_[s] - 1)))
        return slots_[s] - 1;
    return std::nullopt;
  }
  /// Id of `row`, which takes the next id if it is new.
  std::uint32_t insert(const StateWord* row) {
    std::size_t mask = slots_.size() - 1;
    std::size_t s = hash_words(row, width_) & mask;
    for (; slots_[s] != 0; s = (s + 1) & mask)
      if (std::equal(row, row + width_, this->row(slots_[s] - 1)))
        return slots_[s] - 1;
    const auto id = static_cast<std::uint32_t>(size());
    rows_.insert(rows_.end(), row, row + width_);
    slots_[s] = id + 1;
    if (2 * size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), 0);
      mask = slots_.size() - 1;
      for (std::uint32_t r = 0; r <= id; ++r) {
        s = hash_words(this->row(r), width_) & mask;
        while (slots_[s] != 0) s = (s + 1) & mask;
        slots_[s] = r + 1;
      }
    }
    return id;
  }

 private:
  std::size_t width_;
  std::vector<StateWord> rows_;
  std::vector<std::uint32_t> slots_;
};

/// True when row `a` comes before row `b` in the order of the
/// std::vector<bool> states they pack (signal 0 most significant): at their
/// lowest differing bit, `a` holds the 0.
inline bool signal_order_less(const StateWord* a, const StateWord* b,
                              std::size_t width) {
  for (std::size_t w = 0; w < width; ++w) {
    const StateWord diff = a[w] ^ b[w];
    if (diff != 0) return (a[w] & diff & (~diff + 1)) == 0;
  }
  return false;
}

/// Sort the `width`-word rows of rows[first..] into signal order (see
/// signal_order_less).
inline void sort_rows_signal_order(std::vector<StateWord>& rows,
                                   std::size_t first, std::size_t width) {
  const std::size_t n = (rows.size() - first) / width;
  const auto row = [&](std::size_t r) {
    return rows.data() + first + r * width;
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return signal_order_less(row(a), row(b), width);
  });
  std::vector<StateWord> sorted;
  sorted.reserve(n * width);
  for (const std::size_t r : order)
    sorted.insert(sorted.end(), row(r), row(r) + width);
  std::copy(sorted.begin(), sorted.end(),
            rows.begin() + static_cast<std::ptrdiff_t>(first));
}

/// Sort the `width`-word rows of `rows` lexicographically (word 0 first)
/// and drop repeats, so equal row sets compare equal as vectors.
inline void sort_unique_rows(std::vector<StateWord>& rows, std::size_t width) {
  if (width == 1) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return;
  }
  const std::size_t n = rows.size() / width;
  const auto row = [&](std::size_t r) { return rows.begin() + r * width; };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                        row(b) + width);
  });
  std::vector<StateWord> out;
  out.reserve(rows.size());
  for (const std::size_t r : order) {
    if (!out.empty() && std::equal(row(r), row(r) + width, out.end() - width))
      continue;
    out.insert(out.end(), row(r), row(r) + width);
  }
  rows.swap(out);
}

}  // namespace xatpg
