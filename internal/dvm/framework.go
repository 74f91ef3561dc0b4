package dvm

import (
	"fmt"

	"repro/internal/dex"
	"repro/internal/taint"
)

// Synthetic device data returned by the framework sources. Values echo the
// paper's logs where it shows them (Fig. 8's contact, Fig. 9's line number
// and network operator).
const (
	DeviceIMEI      = "354957031111111"
	DeviceIMSI      = "310260000000000"
	DeviceLine1     = "15555215554"
	DeviceOperator  = "310260"
	DeviceICCID     = "89014103211118510720"
	ContactID       = "1"
	ContactName     = "Vincent"
	ContactEmail    = "cx@gg.com"
	SMSBody         = "PIN is 8731, do not share"
	DeviceLocation  = "22.2819,114.1589"
	FrameworkMarker = "Landroid/" // prefix of framework classes
)

// registerFramework installs the Android-framework stand-ins: taint sources
// (telephony, contacts, SMS, location), the Java-context network sink, the
// String/System helpers app bytecode needs, and the exception hierarchy.
func registerFramework(vm *VM) {
	// --- exception hierarchy ---
	exc := dex.NewClass("Ljava/lang/Exception;").
		InstanceField("message", false).
		Build()
	ctor := dex.NewMethod(exc, "<init>", "VL", dex.AccPublic)
	ctor.Builtin = Builtin(func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		if o, ok := vm.objects[args[0]]; ok && len(o.Fields) > 0 {
			o.Fields[0] = args[1]
			if len(taints) > 1 {
				o.FieldTaints[0] = taints[1]
				// The exception reference itself carries the message taint so
				// catch-site propagation works.
				if msg, ok := vm.objects[args[1]]; ok {
					o.Taint |= msg.Taint | taints[1]
				}
			}
		}
		return 0, 0, nil
	})
	getMsg := dex.NewMethod(exc, "getMessage", "L", dex.AccPublic)
	getMsg.Builtin = Builtin(func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		o, ok := vm.objects[args[0]]
		if !ok || len(o.Fields) == 0 {
			return 0, 0, nil
		}
		msgAddr := o.Fields[0]
		t := o.FieldTaints[0]
		if msg, ok := vm.objects[msgAddr]; ok {
			t |= msg.Taint
		}
		return uint64(msgAddr), t, nil
	})
	exc.Methods = append(exc.Methods, ctor, getMsg)
	vm.RegisterClass(exc)

	for _, name := range []string{
		"Ljava/lang/RuntimeException;",
		"Ljava/lang/NullPointerException;",
		"Ljava/lang/ArithmeticException;",
		"Ljava/lang/ArrayIndexOutOfBoundsException;",
	} {
		sub := dex.NewClass(name).Super("Ljava/lang/Exception;").Build()
		vm.RegisterClass(sub)
	}

	// --- java/lang/Object ---
	objCls := dex.NewClass("Ljava/lang/Object;").Build()
	objInit := dex.NewMethod(objCls, "<init>", "V", dex.AccPublic)
	objInit.Builtin = Builtin(func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		return 0, 0, nil
	})
	objCls.Methods = append(objCls.Methods, objInit)
	vm.RegisterClass(objCls)

	// --- java/lang/String ---
	strCls := dex.NewClass("Ljava/lang/String;").Build()
	addBuiltin(vm, strCls, "concat", "LL", 0, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		a, aok := vm.objects[args[0]]
		b, bok := vm.objects[args[1]]
		if !aok || !bok {
			return 0, 0, vm.makeThrowable(th, "Ljava/lang/NullPointerException;", "concat")
		}
		o := vm.NewString(a.Str + b.Str)
		o.Taint = a.Taint | b.Taint | taints[0] | taints[1]
		return uint64(o.Addr), o.Taint, nil
	})
	addBuiltin(vm, strCls, "length", "I", 0, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		o, ok := vm.objects[args[0]]
		if !ok {
			return 0, 0, vm.makeThrowable(th, "Ljava/lang/NullPointerException;", "length")
		}
		return uint64(len(o.Str)), o.Taint | taints[0], nil
	})
	addBuiltin(vm, strCls, "valueOf", "LI", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		o := vm.NewString(fmt.Sprintf("%d", int32(args[0])))
		o.Taint = taints[0]
		return uint64(o.Addr), o.Taint, nil
	})
	addBuiltin(vm, strCls, "getBytes", "L", 0, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		o, ok := vm.objects[args[0]]
		if !ok {
			return 0, 0, vm.makeThrowable(th, "Ljava/lang/NullPointerException;", "getBytes")
		}
		arr := vm.NewArray('B', len(o.Str))
		copy(arr.Data, o.Str)
		arr.Taint = o.Taint | taints[0]
		return uint64(arr.Addr), arr.Taint, nil
	})
	vm.RegisterClass(strCls)

	// --- java/lang/System ---
	sysCls := dex.NewClass("Ljava/lang/System;").Build()
	// An app's libraries are loaded by its install (LoadNativeLib), so the
	// Java-side calls do nothing.
	loadLib := func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		return 0, 0, nil
	}
	addBuiltin(vm, sysCls, "loadLibrary", "VL", dex.AccStatic, loadLib)
	addBuiltin(vm, sysCls, "load", "VL", dex.AccStatic, loadLib)
	vm.RegisterClass(sysCls)

	// --- sources: telephony ---
	tel := dex.NewClass("Landroid/telephony/TelephonyManager;").Build()
	source := func(name, value string, tag taint.Tag) {
		addBuiltin(vm, tel, name, "L", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
			o := vm.NewString(value)
			if vm.TaintJava {
				o.Taint = tag
			}
			return uint64(o.Addr), o.Taint, nil
		})
	}
	source("getDeviceId", DeviceIMEI, taint.IMEI)
	source("getSubscriberId", DeviceIMSI, taint.IMSI)
	source("getLine1Number", DeviceLine1, taint.PhoneNumber)
	source("getSimSerialNumber", DeviceICCID, taint.ICCID)
	source("getNetworkOperator", DeviceOperator, taint.IMSI)
	vm.RegisterClass(tel)

	// --- sources: contacts / SMS / location ---
	contacts := dex.NewClass("Landroid/provider/Contacts;").Build()
	csource := func(c *dex.Class, name, value string, tag taint.Tag) {
		addBuiltin(vm, c, name, "L", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
			o := vm.NewString(value)
			if vm.TaintJava {
				o.Taint = tag
			}
			return uint64(o.Addr), o.Taint, nil
		})
	}
	csource(contacts, "getContactId", ContactID, taint.Contacts)
	csource(contacts, "getContactName", ContactName, taint.Contacts)
	csource(contacts, "getContactEmail", ContactEmail, taint.Contacts)
	vm.RegisterClass(contacts)

	sms := dex.NewClass("Landroid/telephony/SmsManager;").Build()
	csource(sms, "getLastMessage", SMSBody, taint.SMS)
	vm.RegisterClass(sms)

	loc := dex.NewClass("Landroid/location/LocationManager;").Build()
	csource(loc, "getLastKnownLocation", DeviceLocation, taint.Location)
	vm.RegisterClass(loc)

	// --- Java-context network sink (TaintDroid's sink set) ---
	net := dex.NewClass("Landroid/net/Network;").Build()
	addBuiltin(vm, net, "send", "VLL", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		dest, data := "", ""
		var tag taint.Tag
		if o, ok := vm.objects[args[0]]; ok {
			dest = o.Str
		}
		if o, ok := vm.objects[args[1]]; ok {
			data = o.Str
			tag |= o.Taint
		}
		tag |= taints[0] | taints[1]
		// The bytes really leave the device through the emulated network.
		s := vm.Kern.Net.NewSocket()
		s.Connect(dest, 80)
		vm.Kern.Net.Send(s, []byte(data))
		if vm.TaintJava && tag != 0 && vm.JavaLeakFn != nil {
			vm.JavaLeakFn(JavaLeak{Sink: "Network.send", Dest: dest, Data: data, Tag: tag})
		}
		return 0, 0, nil
	})
	vm.RegisterClass(net)
}

// addBuiltin attaches a host-implemented method to a framework class.
func addBuiltin(vm *VM, c *dex.Class, name, shorty string, flags uint32, fn Builtin) {
	m := dex.NewMethod(c, name, shorty, flags|dex.AccPublic)
	m.Builtin = fn
	c.Methods = append(c.Methods, m)
}
