#include "exp/run.hpp"

#include "experiments/adaptive.hpp"
namespace fx::exp {
int run() { return adaptive_beta(); }
}
