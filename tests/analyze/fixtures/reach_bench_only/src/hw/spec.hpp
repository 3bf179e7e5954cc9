#pragma once
namespace fx::hw {
inline const char* spec() { return "Nexus 5"; }
}
