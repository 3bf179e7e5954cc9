#pragma once
namespace fx::sim {
int step();
}
