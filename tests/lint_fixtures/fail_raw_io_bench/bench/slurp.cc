// Fixture: a raw reader in bench/ must be flagged by raw-io (benches read
// recordings through readFileText like everything else).
#include <cstdio>
#include <string>

bool
slurp(const std::string& path, std::string& out)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[256];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return true;
}
