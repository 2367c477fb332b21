// String dictionary: bijective mapping string <-> int64 code. All join
// columns in xjoin are dictionary codes, so heterogeneous sources
// (relational CSV values, XML text content) join by integer equality.
#ifndef XJOIN_COMMON_DICTIONARY_H_
#define XJOIN_COMMON_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace xjoin {

/// Dense code space: codes are assigned 0,1,2,... in first-seen order.
/// Codes only guarantee equality semantics across sources; their numeric
/// order is insertion order, which is a valid (arbitrary) total order for
/// trie-based joins.
///
/// Thread-safe: Intern takes a writer lock, the read paths share a
/// reader lock, so serving-core sessions can decode results while a
/// writer registers new data. Strings live in a deque — push_back never
/// relocates existing elements, and a move of the deque hands its blocks
/// over — so the reference Decode returns stays valid for the
/// dictionary's lifetime even across concurrent Interns, and the index
/// keys each string by a view into the deque instead of a second copy.
class Dictionary {
 public:
  Dictionary() = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  /// Movable (the lock lives behind a pointer) so an XmlDocument, which
  /// owns its tag dictionary, can be moved; a moved-from dictionary must
  /// not be used.
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Returns the code for `s`, inserting it if new.
  int64_t Intern(std::string_view s);

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
  mutable std::unique_ptr<std::shared_mutex> mu_ =
      std::make_unique<std::shared_mutex>();
  std::unordered_map<std::string_view, int64_t> index_;  // views into strings_
  std::deque<std::string> strings_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_DICTIONARY_H_
