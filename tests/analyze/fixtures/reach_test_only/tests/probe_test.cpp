#include "common/probe.hpp"
int probe_test() { return fx::common::probe(); }
