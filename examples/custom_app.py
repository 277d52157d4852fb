#!/usr/bin/env python3
"""Protecting your own app written in repro assembly.

Shows the lowest-level workflow: write an app in the text ISA, package
and sign it, protect it, and read the before/after disassembly to see
exactly what BombDroid did to your qualified conditions.

Run:  python examples/custom_app.py
"""

from repro.apk import Resources, build_apk
from repro.core import BombDroid, BombDroidConfig
from repro.crypto import RSAKeyPair
from repro.dex import assemble, disassemble
from repro.vm import DevicePopulation, PlaySession
from repro.vm.events import Event, EventKind

APP_SOURCE = """
.class Vault
.field balance static 1000
.field pin_ok static false
.method main 0
    const r0, 1000
    sput r0, Vault.balance
    return_void
.end
.method on_text 1
    # A string qualified condition: the PIN check.
    const r1, "0451"
    invoke r2, java.str.equals, r0, r1
    if_eqz r2, @denied
    const r3, true
    sput r3, Vault.pin_ok
@denied:
    return_void
.end
.method on_menu 1
    # An integer qualified condition: menu item 7 is "withdraw".
    const r1, 7
    if_ne r0, r1, @done
    sget r2, Vault.pin_ok
    if_eqz r2, @done
    sget r3, Vault.balance
    sub_lit r3, r3, 100
    sput r3, Vault.balance
@done:
    return_void
.end
"""


def main() -> None:
    dex = assemble(APP_SOURCE)
    developer_key = RSAKeyPair.generate(seed=51)
    apk = build_apk(
        dex,
        Resources(
            strings={
                "app_name": "Vault",
                "tagline": "keep your numbers safe with us every day and night always",
            },
            app_name="Vault",
        ),
        developer_key,
    )

    print("=== before protection: Vault.on_text ===")
    print("\n".join(disassemble(dex).splitlines()[:30]))

    protected, report = BombDroid(
        BombDroidConfig(seed=9, profiling_events=300)
    ).protect(apk, developer_key)
    print(f"\n{report.summary()}")
    for bomb in report.bombs:
        print(
            f"  {bomb.bomb_id}: {bomb.origin.value:<10} {bomb.strength.value:<7} "
            f"at {bomb.method}"
            + (f"  inner: {bomb.inner_description}" if bomb.inner_description else "")
        )

    print("\n=== after protection (excerpt) ===")
    listing = disassemble(protected.dex())
    interesting = [
        line for line in listing.splitlines() if "bomb." in line or ".method" in line
    ]
    print("\n".join(interesting[:25]))
    # The PIN was the trigger constant; it is removed from the code
    # entirely (it now only exists as a salted hash).
    print(f'\nnote: the PIN string constant survives in the code: '
          f'{chr(34) + "0451" + chr(34) in listing}')

    # And it still works.
    session = PlaySession(
        protected.dex(), DevicePopulation(seed=1).sample(),
        package=protected.install_view(), seed=1,
    )
    session.play([
        Event(EventKind.TEXT, "Vault", ("0451",)),
        Event(EventKind.MENU, "Vault", (7,)),
    ])
    print(f"balance after PIN + withdraw: {session.runtime.statics['Vault.balance']} "
          "(expect 900)")


if __name__ == "__main__":
    main()
