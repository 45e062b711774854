// Must trip raw-parse: strtod reads "25" as a fraction of 25 and "abc"
// as 0 without complaint.
#include <cstdlib>

double
maxRegression(const char* s)
{
    return std::strtod(s, nullptr);
}
