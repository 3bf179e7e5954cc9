#include "common/jobs.hpp"
namespace fx::common {
int default_jobs() { return 1; }
int log_line(const char* fmt, ...) { return fmt[0]; }
}
