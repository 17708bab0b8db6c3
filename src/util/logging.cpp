#include "util/logging.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace helix {

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "[helix panic] %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

} // namespace helix
