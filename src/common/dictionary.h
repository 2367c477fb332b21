// String dictionary: bijective mapping string <-> int64 code. All join
// columns in xjoin are dictionary codes, so heterogeneous sources
// (relational CSV values, XML text content) join by integer equality.
#ifndef XJOIN_COMMON_DICTIONARY_H_
#define XJOIN_COMMON_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xjoin {

/// Dense code space: codes are assigned 0,1,2,... in first-seen order.
/// Codes only guarantee equality semantics across sources; their numeric
/// order is insertion order, which is a valid (arbitrary) total order for
/// trie-based joins.
///
/// Strings live in a deque — push_back never relocates existing
/// elements, and a move of the deque hands its blocks over — so the
/// reference Decode returns stays valid for the dictionary's lifetime
/// even across concurrent Interns. The index is one flat open-addressing
/// table of (hash, code) slots with linear probing, at most 3/4 full;
/// a probe compares the stored hash before the string it names, and
/// nothing but the deque holds string bytes.
///
/// Thread-safe: the read paths share a reader lock, so serving-core
/// sessions can decode results while a writer registers new data.
/// Intern probes under the reader lock first and takes the writer lock
/// only to insert. InternMany takes the writer lock once per call, so
/// bulk loaders call it in chunks of at most kBulkChunk strings and a
/// concurrent reader waits for one chunk, not for a whole load.
class Dictionary {
 public:
  /// The chunk size loaders pass to InternMany.
  static constexpr size_t kBulkChunk = 4096;

  Dictionary();
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  /// Movable (the lock lives behind a pointer) so an XmlDocument, which
  /// owns its tag dictionary, can be moved; a moved-from dictionary must
  /// not be used.
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Returns the code for `s`, inserting it if new.
  int64_t Intern(std::string_view s);

  /// Interns `n` strings in order under one writer lock: out_codes[i]
  /// is the code of views[i], exactly as if Intern had been called on
  /// each in turn.
  void InternMany(const std::string_view* views, size_t n, int64_t* out_codes);

  /// Returns the code for `s` or -1 if absent. Does not insert.
  int64_t Lookup(std::string_view s) const;

  /// Returns the string for a code. Precondition: 0 <= code < size().
  /// The reference stays valid for the dictionary's lifetime.
  const std::string& Decode(int64_t code) const;

  /// Decodes `n` codes under one reader lock: out[i] points at the
  /// string for codes[i], or is nullptr when codes[i] is not a valid
  /// code. The pointers stay valid for the dictionary's lifetime.
  void DecodeMany(const int64_t* codes, size_t n,
                  const std::string** out) const;

  int64_t size() const;

 private:
  /// One index slot: the low 32 bits of the string's hash (which also
  /// pick its home slot) and its code, or kFreeSlot.
  struct Slot {
    uint32_t hash;
    uint32_t code;
  };
  static constexpr uint32_t kFreeSlot = UINT32_MAX;

  /// The slot holding `s`, or the free slot that ends its probe run.
  size_t FindSlot(std::string_view s, uint32_t hash) const;
  /// Returns the code for `s`, inserting it if new. Writer lock held.
  int64_t InternLocked(std::string_view s, uint32_t hash);

  mutable std::unique_ptr<std::shared_mutex> mu_ =
      std::make_unique<std::shared_mutex>();
  std::vector<Slot> slots_;  // size is a power of two
  std::deque<std::string> strings_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_DICTIONARY_H_
