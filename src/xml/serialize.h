// XML serialization: render an XmlDocument back to text. Inverse of
// ParseXml up to whitespace; "@name" children render as attributes.
#ifndef XJOIN_XML_SERIALIZE_H_
#define XJOIN_XML_SERIALIZE_H_

#include <string>
#include <string_view>

#include "xml/document.h"

namespace xjoin {

/// Serialization knobs.
struct XmlWriteOptions {
  bool indent = true;        ///< pretty-print with 2-space indentation
  bool attributes = true;    ///< render "@name" children as attributes
};

/// Renders the document as XML text.
std::string WriteXml(const XmlDocument& doc,
                     const XmlWriteOptions& options = {});

/// Escapes &, <, >, ", ' for use in character data / attribute values.
std::string EscapeXml(std::string_view raw);

}  // namespace xjoin

#endif  // XJOIN_XML_SERIALIZE_H_
