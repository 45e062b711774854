// Fixture copy of the shim: the one file allowed to open files directly.
#include <cstdio>
#include <string>

bool
readBack(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    return std::fclose(f) == 0;
}
