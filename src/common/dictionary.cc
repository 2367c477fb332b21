#include "common/dictionary.h"

#include <mutex>

#include "common/logging.h"

namespace xjoin {

int64_t Dictionary::Intern(std::string_view s) {
  {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  auto it = index_.find(s);  // re-check: lost the race?
  if (it != index_.end()) return it->second;
  int64_t code = static_cast<int64_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(std::string_view(strings_.back()), code);
  return code;
}

int64_t Dictionary::Lookup(std::string_view s) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = index_.find(s);
  if (it == index_.end()) return -1;
  return it->second;
}

const std::string& Dictionary::Decode(int64_t code) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  XJ_CHECK(code >= 0 && static_cast<size_t>(code) < strings_.size())
      << "dictionary code out of range: " << code;
  return strings_[static_cast<size_t>(code)];
}

void Dictionary::DecodeMany(const int64_t* codes, size_t n,
                            const std::string** out) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  const size_t size = strings_.size();
  for (size_t i = 0; i < n; ++i) {
    const bool known = codes[i] >= 0 && static_cast<size_t>(codes[i]) < size;
    out[i] = known ? &strings_[static_cast<size_t>(codes[i])] : nullptr;
  }
}

int64_t Dictionary::size() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return static_cast<int64_t>(strings_.size());
}

}  // namespace xjoin
