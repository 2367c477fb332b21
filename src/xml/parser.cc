#include "xml/parser.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace xjoin {

namespace {

// A single forward pass over the input bytes. Character data is located
// with memchr and copied in runs; element nesting is an explicit stack,
// so no input can deepen the C++ call stack. No line or column is
// tracked while parsing: an error computes them from its byte offset.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        has_unit_separator_(std::memchr(text.data(), 0x1F, text.size()) !=
                            nullptr) {}

  Result<XmlDocument> Run() {
    XJ_RETURN_NOT_OK(ParseProlog());
    XJ_RETURN_NOT_OK(ParseRootElement());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return builder_.Finish();
  }

 private:
  bool AtEnd() const { return p_ >= end_; }
  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  char PeekAt(size_t off) const { return off < Remaining() ? p_[off] : '\0'; }

  bool LookingAt(std::string_view token) const {
    return Remaining() >= token.size() &&
           std::memcmp(p_, token.data(), token.size()) == 0;
  }

  bool Consume(std::string_view token) {
    if (!LookingAt(token)) return false;
    p_ += token.size();
    return true;
  }

  Status Error(const std::string& msg) const {
    const std::string_view before(begin_, static_cast<size_t>(p_ - begin_));
    const auto newlines = std::count(before.begin(), before.end(), '\n');
    const size_t line = 1 + static_cast<size_t>(newlines);
    const size_t last_newline = before.rfind('\n');
    const size_t col = last_newline == std::string_view::npos
                           ? before.size() + 1
                           : before.size() - last_newline;
    return Status::ParseError("XML " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + msg);
  }

  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(*p_)) ++p_;
  }

  // U+001F opens the synthetic value of a textless node
  // (xml/node_index.h), so text or an attribute value holding it could
  // spell one and share its code. Fails at the first 0x1F byte in
  // [from, to), which becomes node text.
  Status RejectUnitSeparator(const char* from, const char* to) {
    if (!has_unit_separator_) return Status::OK();
    const void* us = std::memchr(from, 0x1F, static_cast<size_t>(to - from));
    if (us == nullptr) return Status::OK();
    p_ = static_cast<const char*>(us);
    return Error("U+001F in text");
  }

  // Moves past the first `terminator` at or after the cursor; without
  // one, moves to the end and fails.
  Status SkipPast(std::string_view terminator, const char* what) {
    const std::string_view rest(p_, Remaining());
    const size_t at = rest.find(terminator);
    if (at == std::string_view::npos) {
      p_ = end_;
      return Error(std::string("unterminated ") + what);
    }
    p_ += at + terminator.size();
    return Status::OK();
  }

  // Comments, PIs and whitespace between top-level constructs. An
  // unterminated one ends the input.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Consume("<!--")) {
        if (!SkipPast("-->", "comment").ok()) return;
      } else if (LookingAt("<?")) {
        if (!SkipPast("?>", "processing instruction").ok()) return;
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
      for (; !AtEnd(); ++p_) {
        const char c = *p_;
        if (c == '[') ++bracket_depth;
        if (c == ']') --bracket_depth;
        if (c == '>' && bracket_depth <= 0) {
          ++p_;
          SkipMisc();
          return Status::OK();
        }
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

  // A view of the name at the cursor, which moves past it.
  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(*p_)) return Error("expected name");
    const char* start = p_;
    while (!AtEnd() && IsNameChar(*p_)) ++p_;
    return std::string_view(start, static_cast<size_t>(p_ - start));
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  // Decodes one entity or character reference, the cursor just past its
  // '&', and appends it to `out`. A name of more than 12 bytes is
  // refused after its 13th.
  Status ParseReference(std::string* out) {
    constexpr size_t kMaxEntity = 12;
    const size_t window = std::min(kMaxEntity + 1, Remaining());
    const void* semi = std::memchr(p_, ';', window);
    if (semi == nullptr) {
      p_ += window;
      return Error("unterminated entity reference");
    }
    const std::string_view entity(
        p_, static_cast<size_t>(static_cast<const char*>(semi) - p_));
    p_ += entity.size() + 1;
    if (entity == "amp") {
      *out += '&';
    } else if (entity == "lt") {
      *out += '<';
    } else if (entity == "gt") {
      *out += '>';
    } else if (entity == "quot") {
      *out += '"';
    } else if (entity == "apos") {
      *out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      int base = 10;
      std::string digits(entity.substr(1));
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits.erase(0, 1);
      }
      char* digits_end = nullptr;
      const long code =
          digits.empty() ? 0 : std::strtol(digits.c_str(), &digits_end, base);
      if (digits.empty() || digits_end != digits.c_str() + digits.size() ||
          code <= 0 || code > 0x10FFFF) {
        return Error("bad character reference &" + std::string(entity) + ";");
      }
      if (code == 0x1F) {
        return Error("U+001F in text (&" + std::string(entity) + ";)");
      }
      AppendUtf8(static_cast<unsigned>(code), out);
    } else {
      return Error("unknown entity &" + std::string(entity) + ";");
    }
    return Status::OK();
  }

  // Reads a quoted attribute value into value_ (references decoded).
  Status ParseAttributeValue() {
    if (AtEnd() || (*p_ != '"' && *p_ != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = *p_++;
    value_.clear();
    for (;;) {
      const char* run = p_;
      while (!AtEnd() && *p_ != quote && *p_ != '&' && *p_ != '<') ++p_;
      XJ_RETURN_NOT_OK(RejectUnitSeparator(run, p_));
      value_.append(run, static_cast<size_t>(p_ - run));
      if (AtEnd()) return Error("unterminated attribute value");
      if (*p_ == quote) break;
      if (*p_ == '<') return Error("'<' in attribute value");
      ++p_;  // '&'
      XJ_RETURN_NOT_OK(ParseReference(&value_));
    }
    ++p_;  // closing quote
    return Status::OK();
  }

  // Reads a start tag and its attributes, the cursor at its '<'. Opens
  // the element unless the tag is self-closing.
  Status ParseStartTag() {
    if (open_.size() + 1 > static_cast<size_t>(kMaxXmlDepth)) {
      return Error("elements nest deeper than " + std::to_string(kMaxXmlDepth));
    }
    if (!Consume("<")) return Error("expected '<'");
    XJ_ASSIGN_OR_RETURN(std::string_view tag, ParseName());
    builder_.StartElement(tag);

    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + std::string(tag));
      if (*p_ == '>' || (*p_ == '/' && PeekAt(1) == '>')) break;
      XJ_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      XJ_RETURN_NOT_OK(ParseAttributeValue());
      attr_tag_.assign(1, '@');
      attr_tag_ += attr_name;
      builder_.StartElement(attr_tag_);
      builder_.AddText(value_);
      XJ_RETURN_NOT_OK(builder_.EndElement());
    }

    if (Consume("/>")) return builder_.EndElement();
    ++p_;  // '>'
    const size_t depth = open_.size();
    open_.push_back(tag);
    if (text_.size() <= depth) text_.resize(depth + 1);
    text_[depth].clear();
    return Status::OK();
  }

  // Reads an end tag, the cursor at its "</", and closes the innermost
  // element with the character data gathered for it.
  Status ParseEndTag() {
    p_ += 2;
    XJ_ASSIGN_OR_RETURN(std::string_view closing, ParseName());
    const std::string_view tag = open_.back();
    if (closing != tag) {
      return Error("mismatched close tag </" + std::string(closing) +
                   ">, expected </" + std::string(tag) + ">");
    }
    SkipWhitespace();
    if (!Consume(">")) return Error("expected '>' in close tag");
    builder_.AddText(text_[open_.size() - 1]);
    open_.pop_back();
    return builder_.EndElement();
  }

  // The root element and everything inside it. Each open element
  // gathers its direct character data — runs, decoded references and
  // CDATA, in document order — in text_[depth], which the builder trims
  // when the element closes.
  Status ParseRootElement() {
    XJ_RETURN_NOT_OK(ParseStartTag());
    while (!open_.empty()) {
      std::string& text = text_[open_.size() - 1];
      const void* lt = std::memchr(p_, '<', Remaining());
      const char* markup = lt ? static_cast<const char*>(lt) : end_;
      const void* amp = std::memchr(p_, '&', static_cast<size_t>(markup - p_));
      const char* stop = amp ? static_cast<const char*>(amp) : markup;
      XJ_RETURN_NOT_OK(RejectUnitSeparator(p_, stop));
      text.append(p_, static_cast<size_t>(stop - p_));
      p_ = stop;
      if (AtEnd()) {
        return Error("unterminated element <" + std::string(open_.back()) +
                     ">");
      }
      if (*p_ == '&') {
        ++p_;
        XJ_RETURN_NOT_OK(ParseReference(&text));
      } else if (Consume("<!--")) {
        XJ_RETURN_NOT_OK(SkipPast("-->", "comment"));
      } else if (Consume("<![CDATA[")) {
        // An unterminated section runs to the end of the input.
        const std::string_view rest(p_, Remaining());
        const size_t close = rest.find("]]>");
        const std::string_view data = rest.substr(0, close);
        XJ_RETURN_NOT_OK(
            RejectUnitSeparator(data.data(), data.data() + data.size()));
        text.append(data);
        p_ = close == std::string_view::npos ? end_ : p_ + close + 3;
      } else if (PeekAt(1) == '?') {
        XJ_RETURN_NOT_OK(SkipPast("?>", "processing instruction"));
      } else if (PeekAt(1) == '/') {
        XJ_RETURN_NOT_OK(ParseEndTag());
      } else {
        XJ_RETURN_NOT_OK(ParseStartTag());
      }
    }
    return Status::OK();
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  // Whether the input holds a 0x1F byte anywhere. Most inputs do not,
  // and then no text run needs RejectUnitSeparator's scan.
  const bool has_unit_separator_;
  XmlDocumentBuilder builder_;
  // Tags of the elements whose start tag has been read and whose end
  // tag has not, outermost first.
  std::vector<std::string_view> open_;
  std::vector<std::string> text_;  // by depth, reused across elements
  std::string value_;              // the attribute value being read
  std::string attr_tag_;           // "@" + the attribute's name
};

}  // namespace

Result<XmlDocument> ParseXml(std::string_view text) {
  // Node text ranges are 32-bit; a document's text is never longer than
  // the document.
  if (text.size() > UINT32_MAX) {
    return Status::ParseError("XML document larger than 4 GiB");
  }
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
