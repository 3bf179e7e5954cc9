#pragma once
namespace fx::exp {
inline int adaptive_beta() { return 3; }
}
