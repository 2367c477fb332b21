// The trie interface the generic worst-case-optimal engine
// (core/generic_join.h) consumes. A trie presents a relation as nested
// sorted levels: level i holds the distinct values of attribute i given
// the bound prefix. The engine sees one contract only — opening a level
// yields its sorted distinct int64_t keys as a borrowed span — and runs
// every intersection over those spans with the kernel of
// relational/intersect_kernels.h. Implementations:
//   * RelationTrieIterator — CSR level arrays; a span points straight
//     into the level array (relational/trie.h)
//   * LazyPathTrieIterator — navigates an XML document in place,
//     deduplicating the tag-matching children of the parent's value
//     group per open (core/virtual_relation.h)
//   * a flattened path (PathRelation::Materialize) is a plain
//     RelationTrie; the engine never builds one, the conformance tests
//     use it as the lazy cursor's oracle
#ifndef XJOIN_RELATIONAL_TRIE_ITERATOR_H_
#define XJOIN_RELATIONAL_TRIE_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace xjoin {

/// The keys of one open trie level: keys[lo..hi) are sorted ascending
/// and distinct. `keys` is borrowed from the iterator (or its backing
/// trie) and stays valid until that level is closed by Up().
struct KeySpan {
  const int64_t* keys = nullptr;
  size_t lo = 0;
  size_t hi = 0;

  size_t size() const { return hi - lo; }
};

/// Cursor stack over a sorted trie of tuples.
///
/// Protocol: the iterator starts at the virtual root with no level
/// open. Open(parent_pos) opens the next level and returns its span —
/// at the root `parent_pos` is ignored; below it, the new level holds
/// the children of the key at index `parent_pos` (lo <= parent_pos <
/// hi) of the span the previous Open returned. Up() closes the deepest
/// open level. A key's children may be an empty span (lazy path tries
/// expose chain prefixes that do not extend). Open requires fewer than
/// arity() levels open; Up requires at least one.
///
/// Threading: an iterator is single-threaded, but distinct iterators
/// over the same backing data (see Clone()) may be driven from
/// different threads — implementations keep all mutable state inside
/// the iterator and treat the backing trie or document as immutable.
class TrieIterator {
 public:
  virtual ~TrieIterator() = default;

  /// Number of trie levels (attributes).
  virtual int arity() const = 0;

  /// Opens the next level under key `parent_pos` of the deepest open
  /// span (ignored at the root) and returns the new level's keys.
  virtual KeySpan Open(size_t parent_pos) = 0;

  /// Closes the deepest open level.
  virtual void Up() = 0;

  /// Creates a fresh, independent iterator over the same backing data,
  /// at the virtual root regardless of this iterator's open levels. The
  /// clone shares only immutable backing data (CSR arrays, the
  /// document, the node index), so the generic-join driver can hand
  /// every worker thread its own cursor stack with no shared mutable
  /// state. Clone() reads only that immutable data, so several threads
  /// may clone one iterator at once while no thread drives it. The
  /// backing data must outlive the clone.
  virtual std::unique_ptr<TrieIterator> Clone() const = 0;
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_TRIE_ITERATOR_H_
