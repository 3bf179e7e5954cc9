#include "experiments/adaptive.hpp"
int main() { return fx::exp::adaptive_beta(); }
