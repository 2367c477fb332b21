// A small, dependency-free XML parser covering the subset the paper's
// datasets need: elements, attributes (mapped to "@name" child elements),
// character data with the five predefined entities plus numeric
// references, comments, processing instructions, and CDATA sections.
// No DTD processing; documents must have a single root element. One
// forward pass: names are views into the input, character data is
// copied in memchr-delimited runs into the document's text arena.
#ifndef XJOIN_XML_PARSER_H_
#define XJOIN_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace xjoin {

/// The deepest element nesting ParseXml accepts (the root element is
/// depth 1). Real documents nest far less — XMark about 10 deep. The
/// parser keeps its open elements on the heap, but code that walks a
/// document's tree recursively (WriteXml) relies on the cap to stay well
/// inside any thread's stack.
inline constexpr int kMaxXmlDepth = 1024;

/// Parses `text` into a document. Errors carry the 1-based line/column
/// where parsing stopped; nesting deeper than kMaxXmlDepth is a
/// kParseError, and so is U+001F (raw, "&#31;" or "&#x1F;") in
/// character data, CDATA or an attribute value, because it opens the
/// synthetic values of textless nodes (xml/node_index.h).
Result<XmlDocument> ParseXml(std::string_view text);

/// Reads and parses a file.
Result<XmlDocument> ParseXmlFile(const std::string& path);

}  // namespace xjoin

#endif  // XJOIN_XML_PARSER_H_
