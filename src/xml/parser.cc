#include "xml/parser.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace xjoin {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<XmlDocument> Run() {
    XJ_RETURN_NOT_OK(ParseProlog());
    XJ_RETURN_NOT_OK(ParseElement(1));
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return builder_.Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }

  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_).substr(0, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Advance();
    return true;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("XML " + std::to_string(line_) + ":" +
                              std::to_string(col_) + ": " + msg);
  }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\r' ||
                        Peek() == '\n')) {
      Advance();
    }
  }

  Status SkipUntil(std::string_view terminator, const std::string& what) {
    while (!AtEnd()) {
      if (Consume(terminator)) return Status::OK();
      Advance();
    }
    return Error("unterminated " + what);
  }

  // Comments, PIs and whitespace between top-level constructs.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Consume("<!--")) {
        if (!SkipUntil("-->", "comment").ok()) return;
      } else if (!AtEnd() && Peek() == '<' && PeekAt(1) == '?') {
        if (!SkipUntil("?>", "processing instruction").ok()) return;
      } else {
        return;
      }
    }
  }

  Status ParseProlog() {
    SkipMisc();
    if (Consume("<!DOCTYPE")) {
      // Skip a (possibly bracketed) DOCTYPE without interpreting it.
      int bracket_depth = 0;
      while (!AtEnd()) {
        char c = Peek();
        if (c == '[') ++bracket_depth;
        if (c == ']') --bracket_depth;
        if (c == '>' && bracket_depth <= 0) {
          Advance();
          SkipMisc();
          return Status::OK();
        }
        Advance();
      }
      return Error("unterminated DOCTYPE");
    }
    return Status::OK();
  }

  static bool IsNameStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    std::string name;
    while (!AtEnd() && IsNameChar(Peek())) {
      name += Peek();
      Advance();
    }
    return name;
  }

  // Decodes one entity/char reference after the '&' has been consumed.
  Result<std::string> ParseReference() {
    std::string entity;
    while (!AtEnd() && Peek() != ';') {
      entity += Peek();
      Advance();
      if (entity.size() > 12) return Error("unterminated entity reference");
    }
    if (AtEnd()) return Error("unterminated entity reference");
    Advance();  // ';'
    if (entity == "amp") return std::string("&");
    if (entity == "lt") return std::string("<");
    if (entity == "gt") return std::string(">");
    if (entity == "quot") return std::string("\"");
    if (entity == "apos") return std::string("'");
    if (!entity.empty() && entity[0] == '#') {
      int base = 10;
      std::string digits = entity.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty())
        return Error("bad character reference &" + entity + ";");
      char* end = nullptr;
      long code = std::strtol(digits.c_str(), &end, base);
      if (end != digits.c_str() + digits.size() || code <= 0 ||
          code > 0x10FFFF) {
        return Error("bad character reference &" + entity + ";");
      }
      // Encode as UTF-8.
      std::string out;
      unsigned cp = static_cast<unsigned>(code);
      if (cp < 0x80) {
        out += static_cast<char>(cp);
      } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      }
      return out;
    }
    return Error("unknown entity &" + entity + ";");
  }

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        Advance();
        XJ_ASSIGN_OR_RETURN(std::string decoded, ParseReference());
        value += decoded;
      } else if (Peek() == '<') {
        return Error("'<' in attribute value");
      } else {
        value += Peek();
        Advance();
      }
    }
    if (AtEnd()) return Error("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  // Parses one element nested `depth` deep (the root is depth 1).
  Status ParseElement(int depth) {
    if (depth > kMaxXmlDepth) {
      return Error("elements nest deeper than " +
                   std::to_string(kMaxXmlDepth));
    }
    if (!Consume("<")) return Error("expected '<'");
    XJ_ASSIGN_OR_RETURN(std::string tag, ParseName());
    builder_.StartElement(tag);

    // Attributes.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + tag);
      if (Peek() == '>' || (Peek() == '/' && PeekAt(1) == '>')) break;
      XJ_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      XJ_ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
      builder_.StartElement("@" + attr_name);
      builder_.AddText(attr_value);
      XJ_RETURN_NOT_OK(builder_.EndElement());
    }

    if (Consume("/>")) return builder_.EndElement();
    if (!Consume(">")) return Error("expected '>'");

    // Content.
    std::string text;
    for (;;) {
      if (AtEnd()) return Error("unterminated element <" + tag + ">");
      if (Peek() == '<') {
        if (Consume("<!--")) {
          XJ_RETURN_NOT_OK(SkipUntil("-->", "comment"));
        } else if (Consume("<![CDATA[")) {
          while (!AtEnd() && !Consume("]]>")) {
            text += Peek();
            Advance();
          }
        } else if (PeekAt(1) == '?') {
          XJ_RETURN_NOT_OK(SkipUntil("?>", "processing instruction"));
        } else if (PeekAt(1) == '/') {
          Consume("</");
          XJ_ASSIGN_OR_RETURN(std::string closing, ParseName());
          if (closing != tag) {
            return Error("mismatched close tag </" + closing +
                         ">, expected </" + tag + ">");
          }
          SkipWhitespace();
          if (!Consume(">")) return Error("expected '>' in close tag");
          builder_.AddText(text);
          return builder_.EndElement();
        } else {
          XJ_RETURN_NOT_OK(ParseElement(depth + 1));
        }
      } else if (Peek() == '&') {
        Advance();
        XJ_ASSIGN_OR_RETURN(std::string decoded, ParseReference());
        text += decoded;
      } else {
        text += Peek();
        Advance();
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
  XmlDocumentBuilder builder_;
};

}  // namespace

Result<XmlDocument> ParseXml(std::string_view text) {
  Parser parser(text);
  return parser.Run();
}

Result<XmlDocument> ParseXmlFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  auto doc = ParseXml(text);
  if (!doc.ok()) return doc.status().WithContext(path);
  return doc;
}

}  // namespace xjoin
