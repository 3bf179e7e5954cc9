#include "common/jobs.hpp"
namespace fx::sim {
int fan_out() { return fx::common::default_jobs() * 2; }
}
