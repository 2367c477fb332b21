// xjoin_shell: a tiny REPL over MultiModelDatabase. Loads CSV tables
// and XML documents from disk, answers textual multi-model queries with
// either engine, and explains plans. Also usable non-interactively:
//
//   printf 'demo\nquery ... \n' | ./build/examples/xjoin_shell
//
// Commands:
//   load csv  NAME FILE     register a relation from a CSV file
//   load xml  NAME FILE     register an XML document
//   demo                    register the Figure-1 sample data (R, invoices)
//   query  TEXT             evaluate with XJoin
//   baseline TEXT           evaluate with the baseline engine
//   explain TEXT            print the plan and size bound
//   list                    registered relations and documents
//   help | quit
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "core/database.h"

namespace {

using namespace xjoin;

void PrintRelation(const MultiModelDatabase& db, const Relation& rel,
                   size_t max_rows = 20) {
  const auto& schema = rel.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    std::printf("%s%s", c ? "\t" : "", schema.attribute(c).c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < std::min(max_rows, rel.num_rows()); ++r) {
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      std::printf("%s%s", c ? "\t" : "",
                  db.dictionary().Decode(rel.at(r, c)).c_str());
    }
    std::printf("\n");
  }
  if (rel.num_rows() > max_rows) {
    std::printf("... (%zu rows total)\n", rel.num_rows());
  } else {
    std::printf("(%zu rows)\n", rel.num_rows());
  }
}

void LoadDemo(MultiModelDatabase* db) {
  auto st = db->RegisterRelationCsv("R",
                                    "orderID,userID\n"
                                    "10963,jack\n"
                                    "20134,tom\n"
                                    "35768,bob\n");
  auto st2 = db->RegisterDocumentXml("invoices", R"(
      <invoices>
        <invoice><orderID>10963</orderID>
          <orderLine><ISBN>978-3-16-1</ISBN><price>30</price></orderLine>
        </invoice>
        <invoice><orderID>20134</orderID>
          <orderLine><ISBN>634-3-12-2</ISBN><price>20</price></orderLine>
        </invoice>
      </invoices>)");
  if (!st.ok() || !st2.ok()) {
    std::printf("demo data already loaded\n");
  } else {
    std::printf("loaded relation R and document invoices; try:\n"
                "  query Q(userID, ISBN, price) := R, "
                "invoices:invoice[orderID]/orderLine[ISBN]/price\n");
  }
}

int RunShell() {
  MultiModelDatabase db;
  std::string line;
  bool interactive = true;
  while (true) {
    if (interactive) std::printf("xjoin> ");
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream in{std::string(trimmed)};
    std::string command;
    in >> command;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      std::printf(
          "commands: load csv NAME FILE | load xml NAME FILE | demo |\n"
          "          query TEXT | baseline TEXT | explain TEXT | list | "
          "quit\n");
    } else if (command == "demo") {
      LoadDemo(&db);
    } else if (command == "load") {
      std::string kind, name, file;
      in >> kind >> name >> file;
      Status st = Status::InvalidArgument("usage: load csv|xml NAME FILE");
      if (kind == "csv" && !name.empty() && !file.empty()) {
        Dictionary* dict = db.mutable_dictionary();
        auto rel = ReadCsvFile(file, CsvOptions{}, dict);
        st = rel.ok() ? db.RegisterRelation(name, *std::move(rel))
                      : rel.status();
      } else if (kind == "xml" && !name.empty() && !file.empty()) {
        std::ifstream f(file);
        if (!f) {
          st = Status::IOError("cannot open " + file);
        } else {
          std::ostringstream buf;
          buf << f.rdbuf();
          st = db.RegisterDocumentXml(name, buf.str());
        }
      }
      std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
    } else if (command == "list") {
      Session session = db.OpenSession();
      for (const auto& name : session.RelationNames()) {
        auto rel = session.relation(name);
        std::printf("relation %s  [%zu rows]\n", name.c_str(),
                    (*rel)->num_rows());
      }
      for (const auto& name : session.DocumentNames()) {
        auto index = session.document_index(name);
        std::printf("document %s  [%zu nodes]\n", name.c_str(),
                    (*index)->doc().num_nodes());
      }
    } else if (command == "query" || command == "baseline" ||
               command == "explain") {
      std::string rest;
      std::getline(in, rest);
      std::string text(TrimWhitespace(rest));
      if (command == "explain") {
        auto plan = db.OpenSession().Explain(text);
        std::printf("%s",
                    plan.ok()
                        ? plan->c_str()
                        : (plan.status().ToString() + "\n").c_str());
      } else {
        Metrics metrics;
        QueryOptions options;
        options.engine =
            command == "query" ? Engine::kXJoin : Engine::kBaseline;
        options.metrics = &metrics;
        Timer timer;
        auto result = db.OpenSession().Query(text, options);
        if (!result.ok()) {
          std::printf("%s\n", result.status().ToString().c_str());
        } else {
          PrintRelation(db, *result);
          std::printf("[%s, %.2fms, max intermediate %lld]\n",
                      command == "query" ? "xjoin" : "baseline",
                      timer.ElapsedSeconds() * 1e3,
                      static_cast<long long>(
                          std::max(metrics.Get("xjoin.max_intermediate"),
                                   metrics.Get("baseline.max_intermediate"))));
        }
      }
    } else {
      std::printf("unknown command '%s' (try help)\n", command.c_str());
    }
  }
  return 0;
}

}  // namespace

int main() { return RunShell(); }
