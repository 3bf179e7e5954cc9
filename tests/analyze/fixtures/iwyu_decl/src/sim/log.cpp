#include "common/jobs.hpp"
namespace fx::sim {
int log_start() { return fx::common::log_line("start %d", 1); }
}
