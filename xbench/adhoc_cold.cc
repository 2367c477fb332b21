// adhoc-cold: one in-process caller, closed loop, sending a seeded Zipf
// stream over many distinct query shapes (relation subsets x twig
// variants x heads) on bookstore and XMark data. The plan cache and the
// trie cache are sized below the stream's working set, so most requests
// re-parse, re-plan (bound LP, attribute order) and rebuild tries, and
// the cache evicts; the joins themselves are small.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "workload/bookstore.h"
#include "workload/xmark.h"

namespace xbench {

using xjoin::Result;

namespace {

// Cache sizes, below the working set of the stream (see WORKLOADS.md).
constexpr size_t kPlanCacheCapacity = 8;
constexpr size_t kTrieCacheBudgetBytes = 5u << 19;  // 2.5 MiB
constexpr double kShapeZipfTheta = 0.9;
constexpr uint64_t kShapePermutationSeed = 2018;

struct Family {
  std::string document;
  /// Twig patterns; each binds every join attribute the relations use.
  std::vector<std::string> twigs;
  /// Relation subsets, each joined with every twig, and the heads
  /// tried for it ("*" = every attribute).
  struct Subset {
    std::string relations;
    std::vector<std::string> heads;
  };
  std::vector<Subset> subsets;
};

std::vector<Family> Families() {
  Family bookstore;
  bookstore.document = "invoices";
  bookstore.twigs = {
      "invoice[orderID]/orderLine[ISBN]/price",
      "invoice[orderID]/orderLine[ISBN,price]",
      "invoice[orderID]/orderLine[ISBN,discount]",
      "invoices/invoice[orderID]/orderLine[ISBN]/price",
      "invoice[orderID]/orderLine[ISBN,price,discount]",
      "invoices/invoice[orderID]/orderLine[ISBN,discount]",
  };
  bookstore.subsets = {
      {"R", {"*", "userID, ISBN", "orderID, userID, ISBN"}},
      {"Book", {"*", "ISBN, genre", "orderID, genre"}},
      {"R, Cust", {"*", "country, ISBN", "userID, country, orderID"}},
  };

  Family xmark;
  xmark.document = "xmark";
  xmark.twigs = {
      "closed_auction[itemref,buyer]/price",
      "closed_auction[itemref,buyer,price]",
      "closed_auction[itemref,buyer]",
      "closed_auctions/closed_auction[itemref,buyer]/price",
      "site//closed_auction[itemref,buyer]/price",
      "closed_auction[itemref,seller=buyer]/price",
      "open_auction[itemref,seller=buyer]/current",
      "open_auction[itemref]/bidder/personref=buyer",
      "site//open_auction[bidder/personref=buyer]/itemref",
  };
  xmark.subsets = {
      {"ItemCat", {"*", "itemref, category", "category, buyer"}},
      {"PersonGeo", {"*", "buyer, country", "itemref, country"}},
  };
  return {bookstore, xmark};
}

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (const Family& family : Families()) {
    for (const Family::Subset& subset : family.subsets) {
      for (const std::string& twig : family.twigs) {
        for (const std::string& head : subset.heads) {
          shapes.push_back(Shape{"Q(" + head + ") := " + subset.relations +
                                     ", " + family.document + ":" + twig,
                                 {}, false});
        }
      }
    }
  }
  return shapes;
}

DataText Generate(const Args& args) {
  DataText data;
  xjoin::BookstoreOptions book_options;
  book_options.num_orders = args.tiny ? 300 : 50000;
  book_options.num_invoices = args.tiny ? 100 : 100;
  book_options.num_users = args.tiny ? 50 : 5000;
  book_options.num_books = args.tiny ? 50 : 2000;
  book_options.seed = args.seed;
  xjoin::BookstoreInstance bookstore = xjoin::MakeBookstore(book_options);
  AddRelationText(&data, "R", *bookstore.orders, *bookstore.dict);
  AddRelationText(&data, "Cust", *bookstore.customers, *bookstore.dict);
  AddRelationText(&data, "Book", *bookstore.books, *bookstore.dict);
  AddDocumentText(&data, "invoices", *bookstore.doc);

  xjoin::XMarkOptions xmark_options;
  xmark_options.num_items = args.tiny ? 100 : 20000;
  xmark_options.num_persons = args.tiny ? 50 : 10000;
  xmark_options.num_open_auctions = args.tiny ? 50 : 50;
  xmark_options.num_closed_auctions = args.tiny ? 50 : 100;
  xmark_options.seed = args.seed + 1;
  xjoin::XMarkInstance xmark = xjoin::MakeXMark(xmark_options);
  AddRelationText(&data, "ItemCat", *xmark.item_category, *xmark.dict);
  AddRelationText(&data, "PersonGeo", *xmark.person_country, *xmark.dict);
  AddDocumentText(&data, "xmark", *xmark.doc);
  return data;
}

}  // namespace

Result<Report> RunAdhocCold(const Args& args) {
  InProcessSpec spec;
  spec.data = Generate(args);
  spec.shapes = Shapes();
  spec.configure = [](xjoin::MultiModelDatabase* db) {
    db->SetPlanCacheCapacity(kPlanCacheCapacity);
    db->SetTrieCacheBudget(kTrieCacheBudgetBytes);
  };

  // Zipf over a fixed permutation of the shapes: the seed changes the
  // data and the order of requests, not which shapes are popular, so
  // runs on different seeds do comparable work.
  struct Stream {
    xjoin::Rng rng;
    xjoin::ZipfGenerator zipf;
    std::vector<size_t> rank_to_shape;
  };
  auto stream = std::make_shared<Stream>(
      Stream{xjoin::Rng(args.seed), xjoin::ZipfGenerator(spec.shapes.size(),
                                                         kShapeZipfTheta),
             {}});
  for (size_t i = 0; i < spec.shapes.size(); ++i) {
    stream->rank_to_shape.push_back(i);
  }
  xjoin::Rng permutation(kShapePermutationSeed);
  permutation.Shuffle(&stream->rank_to_shape);
  spec.next_shape = [stream] {
    return stream->rank_to_shape[stream->zipf.Next(&stream->rng)];
  };
  spec.warmup_requests = 50;  // caches at their steady-state occupancy
  return RunInProcessWorkload(args, std::move(spec));
}

}  // namespace xbench
