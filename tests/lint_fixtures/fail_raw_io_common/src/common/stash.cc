// Fixture: a private writer in src/common outside faultio.cc must be
// flagged by raw-io (only the shim itself may open files directly).
#include <cstdio>
#include <string>

namespace constable {

bool
stashText(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fwrite(text.data(), 1, text.size(), f);
    return std::fclose(f) == 0;
}

} // namespace constable
