#include "sim/engine.hpp"
namespace fx::sim {
int step() { return 0; }
}
