// Quickstart: the paper's Figure 1 in ~60 lines.
//
// Build a relational table R(orderID, userID), parse an XML invoice
// document, express the twig query invoice[orderID]/orderLine[ISBN]/price,
// and evaluate Q(userID, ISBN, price) with the worst-case optimal XJoin.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "common/dictionary.h"
#include "core/xjoin.h"
#include "relational/csv.h"
#include "xml/node_index.h"
#include "xml/parser.h"

int main() {
  using namespace xjoin;

  // One dictionary shared by both models: that is what makes the
  // cross-model equi-join meaningful.
  Dictionary dict;

  // --- Relational side: load R(orderID, userID) from CSV. ------------
  const char* csv =
      "orderID,userID\n"
      "10963,jack\n"
      "20134,tom\n"
      "35768,bob\n";
  auto orders = ReadCsv(csv, CsvOptions{}, &dict);
  if (!orders.ok()) {
    std::fprintf(stderr, "CSV error: %s\n", orders.status().ToString().c_str());
    return 1;
  }

  // --- XML side: parse the invoices document. -------------------------
  const char* xml = R"(
    <invoices>
      <invoice><orderID>10963</orderID>
        <orderLine><ISBN>978-3-16-1</ISBN><price>30</price>
                   <discount>0.1</discount></orderLine>
      </invoice>
      <invoice><orderID>20134</orderID>
        <orderLine><ISBN>634-3-12-2</ISBN><price>20</price>
                   <discount>0.3</discount></orderLine>
      </invoice>
    </invoices>)";
  auto doc = ParseXml(xml);
  if (!doc.ok()) {
    std::fprintf(stderr, "XML error: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  NodeIndex index = NodeIndex::Build(&*doc, &dict);

  // --- The multi-model query. -----------------------------------------
  auto twig = Twig::Parse("invoice[orderID]/orderLine[ISBN]/price");
  if (!twig.ok()) {
    std::fprintf(stderr, "twig error: %s\n", twig.status().ToString().c_str());
    return 1;
  }
  MultiModelQuery query;
  query.relations.push_back({"R", &*orders});
  query.twigs.push_back(TwigInput{*std::move(twig), &index});
  query.output_attributes = {"userID", "ISBN", "price"};

  // --- Evaluate with XJoin and print. ----------------------------------
  Metrics metrics;
  EngineServices services;
  services.metrics = &metrics;
  auto result = ExecuteXJoin(query, PlanSettings{}, services);
  if (!result.ok()) {
    std::fprintf(stderr, "XJoin error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("Q(userID, ISBN, price):\n");
  for (size_t r = 0; r < result->num_rows(); ++r) {
    std::printf("  %-6s %-12s %s\n", dict.Decode(result->at(r, 0)).c_str(),
                dict.Decode(result->at(r, 1)).c_str(),
                dict.Decode(result->at(r, 2)).c_str());
  }
  std::printf("\nmax intermediate result: %lld tuples\n",
              static_cast<long long>(metrics.Get("xjoin.max_intermediate")));
  return 0;
}
