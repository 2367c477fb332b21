// The multi-model join query: relational tables plus XML twig patterns,
// joined naturally on shared attribute names (paper Figure 1). This is
// the input type of XJoin, the baseline, and the bound calculator.
// ParseQuery reads one from text against a snapshot of named inputs:
//
//     Q(userID, ISBN, price) :=
//         R, invoices : invoice[orderID]/orderLine[ISBN]/price
//
// Grammar:
//     query   := [ head ":=" ] input ("," input)*
//     head    := NAME "(" attr ("," attr)* ")" | NAME "(*)"
//     input   := relation-name | document-name ":" twig-pattern
// Commas inside twig branch brackets do not split inputs. Without a
// head, the result contains every attribute. A query may name at most
// kMaxQueryAttributes distinct attributes across its inputs; a wider
// one fails to parse (planning cost grows superlinearly in width).
#ifndef XJOIN_CORE_QUERY_H_
#define XJOIN_CORE_QUERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/relation.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// One XML side of the query: a twig over an indexed document.
struct TwigInput {
  Twig twig;
  const NodeIndex* index = nullptr;  ///< document + values (shared dict!)
  /// The registered document name, set by ParseQuery; empty for inputs
  /// built by hand.
  std::string document = {};
};

/// The full query. All relations and all NodeIndexes must encode values
/// through the same Dictionary for the equi-joins to be meaningful.
struct MultiModelQuery {
  struct NamedRelation {
    std::string name;
    const Relation* relation = nullptr;
  };
  std::vector<NamedRelation> relations;
  std::vector<TwigInput> twigs;
  /// Attributes of the result Q(A'); empty means "all attributes".
  std::vector<std::string> output_attributes;
};

/// All distinct attribute names of the query in deterministic order
/// (relations first, then twigs, first-appearance order).
std::vector<std::string> QueryAttributes(const MultiModelQuery& query);

/// Validates shape: non-empty, valid twigs, no wildcard twig tags, and
/// output attributes that exist.
Status ValidateQuery(const MultiModelQuery& query);

/// The widest query ParseQuery accepts: distinct attributes over every
/// relation schema and twig node. Wider text fails with kParseError
/// before any planning.
inline constexpr size_t kMaxQueryAttributes = 256;

namespace internal {

/// One immutable reading of a database's registry: every relation and
/// document pinned via shared_ptr with its version. The database
/// publishes a new one per write; sessions, plans and trie providers
/// share the one they opened on, so it outlives any of them that still
/// runs. Internal; reach it through Session.
struct SnapshotRelation {
  std::shared_ptr<const Relation> relation;
  uint64_t version = 0;
};
struct SnapshotDocument {
  std::shared_ptr<const XmlDocument> doc;
  std::shared_ptr<const NodeIndex> index;
  uint64_t version = 0;
};
struct DatabaseSnapshot {
  std::map<std::string, SnapshotRelation> relations;
  std::map<std::string, SnapshotDocument> documents;
};

}  // namespace internal

/// Parses `text` (grammar above), binding each input to the snapshot's
/// pinned storage by name. NotFound for an unknown name, ParseError for
/// malformed or over-wide text, InvalidArgument for a shape
/// ValidateQuery rejects.
Result<MultiModelQuery> ParseQuery(const std::string& text,
                                   const internal::DatabaseSnapshot& snap);

}  // namespace xjoin

#endif  // XJOIN_CORE_QUERY_H_
