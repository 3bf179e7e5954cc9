#include "experiments/push.hpp"
#include "hw/spec.hpp"
int main() { return fx::gcm::push() + (fx::hw::spec() != nullptr); }
