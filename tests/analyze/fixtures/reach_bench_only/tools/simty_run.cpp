#include "sim/engine.hpp"
int main() { return fx::sim::step(); }
