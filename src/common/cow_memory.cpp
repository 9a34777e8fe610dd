#include "common/cow_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace hermes {

CowMemory::CowMemory(std::size_t bytes, std::uint8_t fill)
    : size_(bytes),
      fill_(fill),
      pages_((bytes + kPageSize - 1) / kPageSize) {}

void CowMemory::read(std::size_t offset, std::span<std::uint8_t> out) const {
  assert(offset + out.size() <= size_);
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t pos = offset + done;
    const std::size_t page = pos / kPageSize;
    const std::size_t in_page = pos % kPageSize;
    const std::size_t chunk =
        std::min(out.size() - done, kPageSize - in_page);
    if (pages_[page]) {
      std::memcpy(out.data() + done, pages_[page]->data() + in_page, chunk);
    } else {
      std::memset(out.data() + done, fill_, chunk);
    }
    done += chunk;
  }
}

void CowMemory::write(std::size_t offset, std::span<const std::uint8_t> data) {
  assert(offset + data.size() <= size_);
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t pos = offset + done;
    const std::size_t page = pos / kPageSize;
    const std::size_t in_page = pos % kPageSize;
    const std::size_t chunk =
        std::min(data.size() - done, kPageSize - in_page);
    std::memcpy(writable_page(page).data() + in_page, data.data() + done,
                chunk);
    done += chunk;
  }
}

CowMemory::Page& CowMemory::writable_page(std::size_t index) {
  std::shared_ptr<Page>& slot = pages_[index];
  if (!slot) {
    slot = std::make_shared<Page>();
    slot->fill(fill_);
  } else if (slot.use_count() > 1) {
    slot = std::make_shared<Page>(*slot);
  }
  return *slot;
}

std::size_t CowMemory::pages_shared_with(const CowMemory& other) const {
  std::size_t shared = 0;
  const std::size_t common = std::min(pages_.size(), other.pages_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (pages_[i] && pages_[i] == other.pages_[i]) ++shared;
  }
  return shared;
}

}  // namespace hermes
