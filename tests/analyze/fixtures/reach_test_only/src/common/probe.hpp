#pragma once
namespace fx::common {
inline int probe() { return 1; }
}
