#include "exp/run.hpp"
int main() { return fx::exp::run(); }
