#pragma once
namespace fx::common {
struct JobsConfig { int jobs = 1; };
int default_jobs();
int log_line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
}
