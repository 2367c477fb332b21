#include "common/dictionary.h"

#include <mutex>

#include "common/hash.h"
#include "common/logging.h"

namespace xjoin {

namespace {

constexpr size_t kInitialSlots = 16;

uint32_t SlotHash(std::string_view s) {
  return static_cast<uint32_t>(StringHash(s));
}

}  // namespace

Dictionary::Dictionary() : slots_(kInitialSlots, Slot{0, kFreeSlot}) {}

size_t Dictionary::FindSlot(std::string_view s, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code == kFreeSlot) return i;
    if (slot.hash == hash && strings_[slot.code] == s) return i;
  }
}

int64_t Dictionary::InternLocked(std::string_view s, uint32_t hash) {
  size_t i = FindSlot(s, hash);
  if (slots_[i].code != kFreeSlot) return slots_[i].code;
  const size_t code = strings_.size();
  // Codes live in 32 bits, and slot positions come from a 32-bit hash.
  XJ_CHECK(code < (size_t{1} << 31)) << "dictionary full";
  if ((code + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> grown(slots_.size() * 2, Slot{0, kFreeSlot});
    const size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.code == kFreeSlot) continue;
      size_t j = slot.hash & mask;
      while (grown[j].code != kFreeSlot) j = (j + 1) & mask;
      grown[j] = slot;
    }
    slots_ = std::move(grown);
    i = FindSlot(s, hash);
  }
  strings_.emplace_back(s);
  slots_[i] = Slot{hash, static_cast<uint32_t>(code)};
  return static_cast<int64_t>(code);
}

int64_t Dictionary::Intern(std::string_view s) {
  const uint32_t hash = SlotHash(s);
  {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    const Slot& slot = slots_[FindSlot(s, hash)];
    if (slot.code != kFreeSlot) return slot.code;
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  return InternLocked(s, hash);  // re-probes: another writer may have won
}

void Dictionary::InternMany(const std::string_view* views, size_t n,
                            int64_t* out_codes) {
  std::vector<uint32_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = SlotHash(views[i]);
  std::unique_lock<std::shared_mutex> lock(*mu_);
  for (size_t i = 0; i < n; ++i) {
    out_codes[i] = InternLocked(views[i], hashes[i]);
  }
}

int64_t Dictionary::Lookup(std::string_view s) const {
  const uint32_t hash = SlotHash(s);
  std::shared_lock<std::shared_mutex> lock(*mu_);
  const Slot& slot = slots_[FindSlot(s, hash)];
  return slot.code == kFreeSlot ? -1 : static_cast<int64_t>(slot.code);
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
