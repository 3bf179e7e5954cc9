#pragma once
namespace fx::gcm {
inline int push() { return 2; }
}
