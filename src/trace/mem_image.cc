#include "trace/mem_image.hh"

#include "common/logging.hh"

namespace constable {

uint8_t
MemImage::readByte(Addr addr) const
{
    auto it = pages.find(addr >> kPageShift);
    if (it == pages.end())
        return 0;
    return (*it->second)[addr & (kPageBytes - 1)];
}

void
MemImage::writeByte(Addr addr, uint8_t b)
{
    auto& page = pages[addr >> kPageShift];
    if (!page)
        page = std::make_unique<Page>(Page{});
    (*page)[addr & (kPageBytes - 1)] = b;
}

uint64_t
MemImage::read(Addr addr, unsigned size) const
{
    if (size == 0 || size > 8)
        panic("MemImage::read: bad size");
    uint64_t v = 0;
    Addr off = addr & (kPageBytes - 1);
    if (off + size > kPageBytes) {
        // Page-crossing: each byte finds its own page.
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<uint64_t>(readByte(addr + i)) << (8 * i);
        return v;
    }
    auto it = pages.find(addr >> kPageShift);
    if (it == pages.end())
        return 0;
    const uint8_t* bytes = it->second->data() + off;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return v;
}

void
MemImage::write(Addr addr, uint64_t value, unsigned size)
{
    if (size == 0 || size > 8)
        panic("MemImage::write: bad size");
    Addr off = addr & (kPageBytes - 1);
    if (off + size > kPageBytes) {
        // Page-crossing: each byte finds its own page.
        for (unsigned i = 0; i < size; ++i)
            writeByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
        return;
    }
    auto& page = pages[addr >> kPageShift];
    if (!page)
        page = std::make_unique<Page>(Page{});
    uint8_t* bytes = page->data() + off;
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<uint8_t>(value >> (8 * i));
}

} // namespace constable
