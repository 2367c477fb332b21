#include "xml/serialize.h"

#include <sstream>

#include "common/string_util.h"

namespace xjoin {

std::string EscapeXml(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

void WriteNode(const XmlDocument& doc, NodeId id, const XmlWriteOptions& opts,
               int indent, std::ostringstream* out) {
  const XmlNode& n = doc.node(id);
  std::string pad = opts.indent
                        ? std::string(static_cast<size_t>(indent) * 2, ' ')
                        : std::string();
  const std::string& tag = doc.TagName(id);
  *out << pad << "<" << tag;

  std::vector<NodeId> element_children;
  for (NodeId c = n.first_child; c != kNullNode; c = doc.node(c).next_sibling) {
    const std::string& ctag = doc.TagName(c);
    if (opts.attributes && StartsWith(ctag, "@") &&
        doc.node(c).first_child == kNullNode) {
      *out << " " << ctag.substr(1) << "=\"" << EscapeXml(doc.text(c)) << "\"";
    } else {
      element_children.push_back(c);
    }
  }

  const std::string_view text = doc.text(id);
  if (element_children.empty() && text.empty()) {
    *out << "/>";
    if (opts.indent) *out << "\n";
    return;
  }
  *out << ">";
  if (!text.empty()) *out << EscapeXml(text);
  if (!element_children.empty()) {
    if (opts.indent) *out << "\n";
    for (NodeId c : element_children) {
      WriteNode(doc, c, opts, indent + 1, out);
    }
    *out << pad;
  }
  *out << "</" << tag << ">";
  if (opts.indent) *out << "\n";
}

}  // namespace

std::string WriteXml(const XmlDocument& doc, const XmlWriteOptions& options) {
  std::ostringstream out;
  if (doc.root() != kNullNode) WriteNode(doc, doc.root(), options, 0, &out);
  return out.str();
}

}  // namespace xjoin
