// wcoj-warm: one in-process caller, closed loop, Session::Query with
// the join split into four prefix shards, and warm plan and trie
// caches. The caller rotates over three shapes whose work is almost all
// GenericJoin expansion, structural validation and the sharded join path:
//   * the paper's Example 3.4 adversarial instance (twig
//     A[B,D]//C/E, E//F[H], F//G with R1(A,B,C,D), R2(E,F,G,H)), whose
//     twig alone has ~n^5 embeddings while the answer has ~n rows;
//   * the AGM-tight 3-cycle (answer size = the AGM bound n^1.5);
//   * XMark closed_auction joined with two relational tables.
#include <memory>

#include "harness.h"
#include "workload/adversarial.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xbench {

using xjoin::Result;

namespace {

struct Sizes {
  int64_t adversarial_n;
  int64_t cycle_n;
  int64_t closed_auctions;
  int64_t items;
  int64_t persons;
};

Sizes SizesFor(const Args& args) {
  if (args.tiny) return Sizes{4, 64, 200, 100, 50};
  return Sizes{10, 900, 2500, 1000, 500};
}

Result<DataText> Generate(const Args& args, const Sizes& sizes) {
  DataText data;
  xjoin::PaperInstance paper = xjoin::MakePaperInstance(
      sizes.adversarial_n, xjoin::PaperSchema::kExample34,
      xjoin::PaperDataMode::kAdversarial, args.seed);
  AddRelationText(&data, "R1", *paper.r1, *paper.dict);
  AddRelationText(&data, "R2", *paper.r2, *paper.dict);
  AddDocumentText(&data, "paper", *paper.doc);

  XJ_ASSIGN_OR_RETURN(
      xjoin::AdversarialInstance cycle,
      xjoin::MakeAgmTightInstance({{"a", "b"}, {"b", "c"}, {"a", "c"}},
                                  sizes.cycle_n));
  AddRelationText(&data, "TR", *cycle.relations[0], *cycle.dict);
  AddRelationText(&data, "TS", *cycle.relations[1], *cycle.dict);
  AddRelationText(&data, "TT", *cycle.relations[2], *cycle.dict);

  xjoin::XMarkOptions xmark_options;
  xmark_options.num_items = sizes.items;
  xmark_options.num_persons = sizes.persons;
  xmark_options.num_open_auctions = 1;
  xmark_options.num_closed_auctions = sizes.closed_auctions;
  xmark_options.seed = args.seed;
  xjoin::XMarkInstance xmark = xjoin::MakeXMark(xmark_options);
  AddRelationText(&data, "ItemCat", *xmark.item_category, *xmark.dict);
  AddRelationText(&data, "PersonGeo", *xmark.person_country, *xmark.dict);
  AddDocumentText(&data, "xmark", *xmark.doc);
  return data;
}

}  // namespace

Result<Report> RunWcojWarm(const Args& args) {
  InProcessSpec spec;
  XJ_ASSIGN_OR_RETURN(spec.data, Generate(args, SizesFor(args)));
  spec.shapes = {
      Shape{"Q(A, B, C, D, E, F, G, H) := R1, R2, "
            "paper:A[B,D]//C/E//F[H]//G",
            {}, true},
      Shape{"Q(a, b, c) := TR, TS, TT", {}, false},
      Shape{"Q(itemref, category, buyer, country, price) := ItemCat, "
            "PersonGeo, xmark:closed_auction[itemref,buyer]/price",
            {}, false},
  };
  // Four prefix shards on one thread: the sharded join path (shard plan,
  // per-shard inputs, result merge) runs on every query, but no query
  // waits for a pool thread. On a shared 4-vCPU host whose other guests
  // took cores away, the p90 of runs a few minutes apart ranged from
  // 3.4 to 8.8 ms with four join threads and from 7.2 to 8.6 ms with one.
  spec.options.xjoin.num_threads = 1;
  spec.options.xjoin.num_shards = 4;
  auto next = std::make_shared<size_t>(args.seed);
  spec.next_shape = [next] { return (*next)++ % 3; };
  spec.warmup_requests = 30;  // plans and tries cached, heap settled
  return RunInProcessWorkload(args, std::move(spec));
}

}  // namespace xbench
